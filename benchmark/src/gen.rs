//! Seeded op streams. The seed chooses op order and sizes; the program
//! under test sees only the generated inputs.
//!
//! The generator is the benchmark's own (not `mst_vkernel::SplitMix64`), so
//! a change to the runtime's PRNG can never change the workloads.

use crate::spec::Workload;

#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Smallest and largest element count of a `gc_churn` result.
pub const CHURN_MIN: u16 = 100;
pub const CHURN_MAX: u16 = 300;

/// One unit of user-visible work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// One sweep of the eight Table 2 selectors, in this order.
    Sweep([u8; 8]),
    /// Build and return an Array of this many 14-slot Arrays.
    Churn(u16),
    /// One `Server::request`: this doit (index into `SERVE_DOITS`) on this
    /// tenant.
    Request { tenant: u8, doit: u8 },
}

/// The endless op stream of one caller.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: SplitMix64,
    workload: Workload,
    tenants: u64,
}

impl OpStream {
    /// `caller` separates the streams of concurrent clients; `tenants` is
    /// how many tenants a request may address (serve workloads only).
    pub fn new(workload: Workload, seed: u64, caller: usize, tenants: usize) -> OpStream {
        // One mixing step decorrelates neighbouring seeds and callers.
        let mut mix =
            SplitMix64::new(seed ^ (caller as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        OpStream {
            rng: SplitMix64::new(mix.next_u64()),
            workload,
            tenants: tenants.max(1) as u64,
        }
    }

    pub fn next_op(&mut self) -> Op {
        match self.workload {
            // macro_contended replays macro_solo's ops exactly.
            Workload::MacroSolo | Workload::MacroContended => {
                let mut order = [0u8, 1, 2, 3, 4, 5, 6, 7];
                for i in (1..order.len()).rev() {
                    order.swap(i, self.rng.below(i as u64 + 1) as usize);
                }
                Op::Sweep(order)
            }
            Workload::GcChurn => {
                let span = (CHURN_MAX - CHURN_MIN + 1) as u64;
                Op::Churn(CHURN_MIN + self.rng.below(span) as u16)
            }
            Workload::ServeSteady | Workload::ServeCheckpoint => Op::Request {
                tenant: self.rng.below(self.tenants) as u8,
                doit: self.rng.below(4) as u8,
            },
        }
    }
}

/// FNV-1a over the first `n` ops of caller 0 — the identity of a stream.
pub fn stream_hash(workload: Workload, seed: u64, tenants: usize, n: usize) -> u64 {
    let mut stream = OpStream::new(workload, seed, 0, tenants);
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |b: u8| h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    for _ in 0..n {
        match stream.next_op() {
            Op::Sweep(order) => order.into_iter().for_each(&mut eat),
            Op::Churn(n) => n.to_le_bytes().into_iter().for_each(&mut eat),
            Op::Request { tenant, doit } => [tenant, doit].into_iter().for_each(&mut eat),
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in Workload::ALL {
            assert_eq!(stream_hash(w, 42, 2, 500), stream_hash(w, 42, 2, 500));
            assert_ne!(stream_hash(w, 42, 2, 500), stream_hash(w, 43, 2, 500));
        }
    }

    #[test]
    fn contended_replays_the_solo_ops() {
        assert_eq!(
            stream_hash(Workload::MacroSolo, 9, 1, 100),
            stream_hash(Workload::MacroContended, 9, 1, 100)
        );
    }

    #[test]
    fn ops_stay_in_range() {
        let mut sweeps = OpStream::new(Workload::MacroSolo, 1, 0, 1);
        let mut churn = OpStream::new(Workload::GcChurn, 1, 0, 1);
        let mut serve = OpStream::new(Workload::ServeSteady, 1, 0, 3);
        let (mut lo, mut hi) = (u16::MAX, 0);
        for _ in 0..5_000 {
            let Op::Sweep(mut order) = sweeps.next_op() else {
                panic!()
            };
            order.sort_unstable();
            assert_eq!(
                order,
                [0, 1, 2, 3, 4, 5, 6, 7],
                "a sweep runs every selector once"
            );
            let Op::Churn(n) = churn.next_op() else {
                panic!()
            };
            (lo, hi) = (lo.min(n), hi.max(n));
            let Op::Request { tenant, doit } = serve.next_op() else {
                panic!()
            };
            assert!(tenant < 3 && doit < 4);
        }
        assert_eq!(
            (lo, hi),
            (CHURN_MIN, CHURN_MAX),
            "both ends of the range occur"
        );
    }

    #[test]
    fn clients_draw_different_streams() {
        let mut a = OpStream::new(Workload::ServeSteady, 5, 0, 4);
        let mut b = OpStream::new(Workload::ServeSteady, 5, 1, 4);
        let ops = |s: &mut OpStream| (0..64).map(|_| s.next_op()).collect::<Vec<_>>();
        assert_ne!(ops(&mut a), ops(&mut b));
    }
}
