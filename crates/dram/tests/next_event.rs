//! Property test of `DramChannel::next_event_after`, the bound an
//! event-driven controller sleeps to: on random command histories, no
//! command-legality or refresh answer may change at any cycle strictly
//! between `now` and the reported next event.

use hydra_dram::{DramChannel, DramTiming};
use hydra_types::{MemCycle, MemGeometry};
use proptest::prelude::*;

const RANKS: u8 = 2;
const BANKS: u8 = 8;

#[derive(Debug, Clone, Copy)]
enum Op {
    Activate { rank: u8, bank: u8, row: u32 },
    Read { rank: u8, bank: u8 },
    Write { rank: u8, bank: u8 },
    Precharge { rank: u8, bank: u8 },
    Refresh,
    Wait { cycles: u16 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u8..RANKS, 0u8..BANKS, 0u32..64)
            .prop_map(|(rank, bank, row)| Op::Activate { rank, bank, row }),
        2 => (0u8..RANKS, 0u8..BANKS).prop_map(|(rank, bank)| Op::Read { rank, bank }),
        1 => (0u8..RANKS, 0u8..BANKS).prop_map(|(rank, bank)| Op::Write { rank, bank }),
        2 => (0u8..RANKS, 0u8..BANKS).prop_map(|(rank, bank)| Op::Precharge { rank, bank }),
        1 => Just(Op::Refresh),
        2 => (1u16..200).prop_map(|cycles| Op::Wait { cycles }),
    ]
}

/// DDR4-3200 with a short refresh interval, so short histories cross
/// several REFs and the cycle-by-cycle check below stays cheap.
fn timing() -> DramTiming {
    DramTiming {
        trefi: 700,
        trfc: 120,
        ..DramTiming::ddr4_3200()
    }
}

/// Every answer the controller bases a decision on, at `t`: per bank
/// `can_activate`, `can_read`, `can_write`, `can_precharge`; per rank
/// refresh `is_due`.
fn answers(ch: &DramChannel, t: MemCycle) -> Vec<bool> {
    let mut out = Vec::new();
    for rank in 0..RANKS {
        for bank in 0..BANKS {
            out.push(ch.can_activate(rank, bank, t));
            out.push(ch.can_read(rank, bank, t));
            out.push(ch.can_write(rank, bank, t));
            out.push(ch.can_precharge(rank, bank, t));
        }
        out.push(ch.rank(rank).refresh().is_due(t));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn no_answer_changes_before_the_next_event(
        ops in prop::collection::vec(op_strategy(), 1..150)
    ) {
        let geometry = MemGeometry::new(1, RANKS, BANKS, 1024, 1024).expect("valid geometry");
        let mut ch = DramChannel::new(geometry, timing(), 0);
        // A history can leave a due REF unserviced, which no later cycle
        // changes; bound the scan there.
        let horizon = 2 * timing().trefi;
        let mut now: MemCycle = 0;
        for op in ops {
            match op {
                Op::Activate { rank, bank, row } if ch.can_activate(rank, bank, now) => {
                    ch.activate(rank, bank, row, now);
                }
                Op::Read { rank, bank } if ch.can_read(rank, bank, now) => {
                    ch.read(rank, bank, now);
                }
                Op::Write { rank, bank } if ch.can_write(rank, bank, now) => {
                    ch.write(rank, bank, now);
                }
                Op::Precharge { rank, bank } if ch.can_precharge(rank, bank, now) => {
                    ch.precharge(rank, bank, now);
                }
                Op::Refresh => {
                    ch.maintain_refresh(now);
                }
                _ => {}
            }
            let next = ch.next_event_after(now);
            prop_assert!(next > now, "next event {} not after {}", next, now);
            let reference = answers(&ch, now + 1);
            for t in now + 2..next.min(now + horizon) {
                prop_assert_eq!(
                    answers(&ch, t),
                    reference,
                    "answer changed at {} before the next event {} (now {})",
                    t,
                    next,
                    now
                );
            }
            now += match op {
                Op::Wait { cycles } => MemCycle::from(cycles),
                _ => 1,
            };
        }
    }
}
