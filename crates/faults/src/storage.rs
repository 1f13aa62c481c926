//! Seeded storage-fault plans for the write-ahead intake journal.
//!
//! [`StorageFaultPlan`] extends the chaos vocabulary below the engine:
//! instead of corrupting *events*, it corrupts the *storage operations*
//! the journal performs — failed and partial appends, failed syncs, torn
//! tails at crash, bit rot in durable bytes, and the crash schedule
//! itself. Like [`crate::FaultPlan`] it is a pure function of
//! `(seed, generation, op index)`: replaying the same plan over the same
//! operation stream injects bit-identical faults.
//!
//! The **generation** axis is what keeps crash-recovery loops live: the
//! recovery harness bumps the generation on every crash, so an operation
//! that failed in generation `g` re-draws in generation `g + 1` instead
//! of deterministically failing forever. (The per-process op counter
//! resets at a crash; without the generation mixed in, the replayed op
//! stream would hit the exact same faults and livelock.)
//!
//! [`FaultyStorage`] wraps any [`Storage`] backend and applies the plan
//! on the journal's durability hot path — `append` and `sync` — turning
//! draws into typed [`WalError::Io`] failures (with partial appends
//! leaving a real prefix behind, exactly what a failed `write` syscall
//! can do). Crash shapes that need backend cooperation (torn tails, bit
//! flips) stay in the harness: the plan picks *where*, the in-memory
//! backend's corruption hooks do *how*.

use crate::{FaultError, FaultPlan, FaultRates};
use scope_wal::{Storage, WalError};

/// Domain separators for storage draws, disjoint from the intake/compute
/// domains in the crate root (`0x01..=0x08`).
const DOMAIN_STORE_APPEND: u64 = 0x09;
const DOMAIN_STORE_PARTIAL: u64 = 0x0a;
const DOMAIN_STORE_SYNC: u64 = 0x0b;
const DOMAIN_STORE_CRASH: u64 = 0x0c;
const DOMAIN_STORE_TORN: u64 = 0x0d;
const DOMAIN_STORE_FLIP: u64 = 0x0e;
const DOMAIN_STORE_FUZZ: u64 = 0x0f;

/// Per-kind storage fault probabilities, each in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageFaultRates {
    /// Per-append probability the append fails outright (no bytes land).
    pub fail_append: f64,
    /// Per-append probability of a partial write: a strict prefix of the
    /// bytes lands, then the append reports failure.
    pub partial_append: f64,
    /// Per-sync probability the durability barrier fails.
    pub fail_sync: f64,
    /// Per-crash probability the crash tears the last pending object
    /// (an arbitrary prefix of its unsynced tail survives).
    pub torn_tail: f64,
    /// Per-crash probability one durable bit flips somewhere.
    pub bit_flip: f64,
    /// Per-opportunity probability of a crash (the harness samples this
    /// at its crash points, e.g. after each delivery).
    pub crash: f64,
}

impl StorageFaultRates {
    /// No storage faults at all.
    pub fn none() -> Self {
        StorageFaultRates {
            fail_append: 0.0,
            partial_append: 0.0,
            fail_sync: 0.0,
            torn_tail: 0.0,
            bit_flip: 0.0,
            crash: 0.0,
        }
    }

    /// Rare failures, occasional crashes with mild corruption.
    pub fn light() -> Self {
        StorageFaultRates {
            fail_append: 0.01,
            partial_append: 0.01,
            fail_sync: 0.02,
            torn_tail: 0.25,
            bit_flip: 0.10,
            crash: 0.05,
        }
    }

    /// Frequent failures, crash-heavy, corruption on most crashes.
    pub fn heavy() -> Self {
        StorageFaultRates {
            fail_append: 0.05,
            partial_append: 0.05,
            fail_sync: 0.10,
            torn_tail: 0.50,
            bit_flip: 0.30,
            crash: 0.15,
        }
    }

    fn validate(&self) -> Result<(), FaultError> {
        for (name, value) in [
            ("fail_append", self.fail_append),
            ("partial_append", self.partial_append),
            ("fail_sync", self.fail_sync),
            ("torn_tail", self.torn_tail),
            ("bit_flip", self.bit_flip),
            ("crash", self.crash),
        ] {
            if !(0.0..=1.0).contains(&value) || !value.is_finite() {
                return Err(FaultError::InvalidRate { name, value });
            }
        }
        Ok(())
    }
}

/// What a plan injects into one append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AppendFault {
    /// The append fails; no bytes reach the backend.
    Fail,
    /// A strict prefix of this many bytes lands, then the append fails.
    Partial(usize),
}

/// A seeded, stateless storage-fault schedule (see the [module
/// docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct StorageFaultPlan {
    draws: FaultPlan,
    rates: StorageFaultRates,
}

impl StorageFaultPlan {
    /// Build a plan; every rate must be a probability in `[0, 1]`.
    pub fn new(seed: u64, rates: StorageFaultRates) -> Result<Self, FaultError> {
        rates.validate()?;
        Ok(StorageFaultPlan {
            // Reuse the crate's mix/chance stream; storage rates live
            // here, so the embedded intake rates are all-zero.
            draws: FaultPlan::new(seed, FaultRates::none())?,
            rates,
        })
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.draws.seed()
    }

    /// The plan's rates.
    pub fn rates(&self) -> &StorageFaultRates {
        &self.rates
    }

    /// The fault (if any) injected into append number `op` of crash
    /// generation `generation`; `len` is the append's byte length.
    pub(crate) fn append_fault(&self, generation: u64, op: u64, len: usize) -> Option<AppendFault> {
        if self
            .draws
            .chance(DOMAIN_STORE_APPEND, generation, op, self.rates.fail_append)
        {
            return Some(AppendFault::Fail);
        }
        if len > 1
            && self.draws.chance(
                DOMAIN_STORE_PARTIAL,
                generation,
                op,
                self.rates.partial_append,
            )
        {
            let keep =
                1 + (self.draws.mix(DOMAIN_STORE_PARTIAL, generation, !op) as usize % (len - 1));
            return Some(AppendFault::Partial(keep));
        }
        None
    }

    /// Whether sync number `op` of `generation` fails.
    pub(crate) fn sync_fails(&self, generation: u64, op: u64) -> bool {
        self.draws
            .chance(DOMAIN_STORE_SYNC, generation, op, self.rates.fail_sync)
    }

    /// Whether the harness crashes at crash-opportunity `op` of
    /// `generation`.
    pub fn crash_at(&self, generation: u64, op: u64) -> bool {
        self.draws
            .chance(DOMAIN_STORE_CRASH, generation, op, self.rates.crash)
    }

    /// For a crash with `pending` unsynced bytes in the tail object: how
    /// many of them a torn write leaves durable, or `None` when this
    /// crash does not tear (all pending bytes are simply lost).
    pub fn torn_keep(&self, generation: u64, op: u64, pending: usize) -> Option<usize> {
        if pending == 0
            || !self
                .draws
                .chance(DOMAIN_STORE_TORN, generation, op, self.rates.torn_tail)
        {
            return None;
        }
        Some(self.draws.mix(DOMAIN_STORE_TORN, generation, !op) as usize % pending)
    }

    /// For a crash: the durable bit to flip (the harness takes it modulo
    /// the chosen object's bit length), or `None` when this crash leaves
    /// durable bytes intact.
    pub fn flip_bit(&self, generation: u64, op: u64) -> Option<u64> {
        if !self
            .draws
            .chance(DOMAIN_STORE_FLIP, generation, op, self.rates.bit_flip)
        {
            return None;
        }
        Some(self.draws.mix(DOMAIN_STORE_FLIP, generation, !op))
    }

    /// `k` distinct, sorted crash points in `0..n` (fuzzed positions in
    /// an `n`-operation schedule). Deterministic in the seed; returns
    /// fewer only when `n < k`.
    pub fn fuzz_points(&self, n: u64, k: usize) -> Vec<u64> {
        let k = (k as u64).min(n);
        let mut points = Vec::new();
        let mut draw = 0u64;
        while (points.len() as u64) < k {
            let p = self.draws.mix(DOMAIN_STORE_FUZZ, draw, 0) % n;
            if !points.contains(&p) {
                points.push(p);
            }
            draw += 1;
        }
        points.sort_unstable();
        points
    }
}

/// A [`Storage`] backend with plan-driven fault injection on the
/// durability hot path (`append` and `sync`). All other operations —
/// the batched `delete_many` included, so a batch keeps the inner
/// backend's one durability barrier — pass through untouched: recovery
/// itself is assumed reliable; what is being tested is what recovery
/// finds.
#[derive(Debug, Clone)]
pub struct FaultyStorage<S: Storage> {
    inner: S,
    plan: StorageFaultPlan,
    generation: u64,
    ops: u64,
}

impl<S: Storage> FaultyStorage<S> {
    /// Wrap `inner` under `plan`, starting at crash generation 0.
    pub fn new(inner: S, plan: StorageFaultPlan) -> Self {
        FaultyStorage {
            inner,
            plan,
            generation: 0,
            ops: 0,
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Mutable access to the wrapped backend (for the harness's crash
    /// corruption hooks).
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Unwrap the backend.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// The current crash generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Fault-relevant operations (appends + syncs) performed so far in
    /// this generation.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Record a crash: bump the generation and reset the op counter, so
    /// the replayed operation stream draws a fresh fault schedule
    /// instead of deterministically re-failing.
    pub fn bump_generation(&mut self) {
        self.generation += 1;
        self.ops = 0;
    }

    fn injected(op: &'static str, what: &str, object: &str) -> WalError {
        WalError::Io {
            object: object.to_string(),
            op,
            reason: format!("injected fault: {what}"),
        }
    }
}

impl<S: Storage> Storage for FaultyStorage<S> {
    fn list(&self) -> Result<Vec<String>, WalError> {
        self.inner.list()
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, WalError> {
        self.inner.read(name)
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        let op = self.ops;
        self.ops += 1;
        match self.plan.append_fault(self.generation, op, bytes.len()) {
            Some(AppendFault::Fail) => Err(Self::injected("append", "write failed", name)),
            Some(AppendFault::Partial(keep)) => {
                self.inner.append(name, &bytes[..keep])?;
                Err(Self::injected("append", "partial write", name))
            }
            None => self.inner.append(name, bytes),
        }
    }

    fn sync(&mut self, name: &str) -> Result<(), WalError> {
        let op = self.ops;
        self.ops += 1;
        if self.plan.sync_fails(self.generation, op) {
            return Err(Self::injected("sync", "sync failed", name));
        }
        self.inner.sync(name)
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        self.inner.write_atomic(name, bytes)
    }

    fn delete(&mut self, name: &str) -> Result<(), WalError> {
        self.inner.delete(name)
    }

    fn delete_many(&mut self, names: &[String]) -> Result<(), WalError> {
        self.inner.delete_many(names)
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), WalError> {
        self.inner.truncate(name, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_wal::MemStorage;

    #[test]
    fn storage_rates_are_validated() {
        let mut rates = StorageFaultRates::none();
        rates.bit_flip = -0.1;
        assert_eq!(
            StorageFaultPlan::new(1, rates).unwrap_err(),
            FaultError::InvalidRate {
                name: "bit_flip",
                value: -0.1
            }
        );
        assert!(StorageFaultPlan::new(1, StorageFaultRates::heavy()).is_ok());
    }

    #[test]
    fn plans_are_pure_and_generation_sensitive() {
        let a = StorageFaultPlan::new(0xfeed, StorageFaultRates::heavy()).unwrap();
        let b = StorageFaultPlan::new(0xfeed, StorageFaultRates::heavy()).unwrap();
        for gen in 0..4u64 {
            for op in 0..64u64 {
                assert_eq!(a.append_fault(gen, op, 100), b.append_fault(gen, op, 100));
                assert_eq!(a.sync_fails(gen, op), b.sync_fails(gen, op));
                assert_eq!(a.crash_at(gen, op), b.crash_at(gen, op));
                assert_eq!(a.torn_keep(gen, op, 40), b.torn_keep(gen, op, 40));
                assert_eq!(a.flip_bit(gen, op), b.flip_bit(gen, op));
            }
        }
        // The same op stream draws differently across generations
        // somewhere — this is the livelock escape hatch.
        let g0: Vec<_> = (0..64u64).map(|op| a.append_fault(0, op, 100)).collect();
        let g1: Vec<_> = (0..64u64).map(|op| a.append_fault(1, op, 100)).collect();
        assert_ne!(g0, g1, "generations drew identical append schedules");
    }

    #[test]
    fn zero_rates_pass_through_and_unit_rates_always_fault() {
        let mut store = FaultyStorage::new(
            MemStorage::new(),
            StorageFaultPlan::new(9, StorageFaultRates::none()).unwrap(),
        );
        for op in 0..32 {
            store.append("a", &[op as u8; 16]).unwrap();
        }
        store.sync("a").unwrap();
        assert_eq!(store.read("a").unwrap().len(), 32 * 16);

        let mut rates = StorageFaultRates::none();
        rates.fail_append = 1.0;
        rates.fail_sync = 1.0;
        let mut store =
            FaultyStorage::new(MemStorage::new(), StorageFaultPlan::new(9, rates).unwrap());
        assert!(matches!(
            store.append("a", b"xx"),
            Err(WalError::Io { op: "append", .. })
        ));
        assert!(matches!(
            store.sync("a"),
            Err(WalError::Io { op: "sync", .. })
        ));
        // Nothing leaked through.
        assert!(store.inner().durable_objects().is_empty());
        assert!(store.inner().pending_objects().is_empty());
    }

    #[test]
    fn partial_appends_leave_a_strict_prefix_then_fail() {
        let mut rates = StorageFaultRates::none();
        rates.partial_append = 1.0;
        let mut store =
            FaultyStorage::new(MemStorage::new(), StorageFaultPlan::new(5, rates).unwrap());
        let bytes = [7u8; 64];
        assert!(matches!(
            store.append("seg", &bytes),
            Err(WalError::Io { op: "append", .. })
        ));
        let landed = store.inner().pending_objects();
        assert_eq!(landed.len(), 1);
        assert!((1..64).contains(&landed[0].1), "prefix must be strict");
        // Single-byte appends cannot be torn — they fail whole or land.
        store.bump_generation();
        let before = store.inner().pending_objects();
        let _ = store.append("seg", &[1u8]);
        let after = store.inner().pending_objects();
        assert!(after == before || after[0].1 == before[0].1 + 1);
    }

    /// A backend that records which deletion entry point each call used.
    #[derive(Default)]
    struct Recording {
        inner: MemStorage,
        deletes: Vec<Vec<String>>,
    }

    impl Storage for Recording {
        fn list(&self) -> Result<Vec<String>, WalError> {
            self.inner.list()
        }
        fn read(&self, name: &str) -> Result<Vec<u8>, WalError> {
            self.inner.read(name)
        }
        fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
            self.inner.append(name, bytes)
        }
        fn sync(&mut self, name: &str) -> Result<(), WalError> {
            self.inner.sync(name)
        }
        fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
            self.inner.write_atomic(name, bytes)
        }
        fn delete(&mut self, name: &str) -> Result<(), WalError> {
            self.deletes.push(vec![name.to_string()]);
            self.inner.delete(name)
        }
        fn delete_many(&mut self, names: &[String]) -> Result<(), WalError> {
            self.deletes.push(names.to_vec());
            self.inner.delete_many(names)
        }
        fn truncate(&mut self, name: &str, len: u64) -> Result<(), WalError> {
            self.inner.truncate(name, len)
        }
    }

    #[test]
    fn a_batched_delete_reaches_the_inner_backend_as_one_call() {
        let mut store = FaultyStorage::new(
            Recording::default(),
            StorageFaultPlan::new(3, StorageFaultRates::heavy()).unwrap(),
        );
        let names: Vec<String> = ["a", "b", "c"].map(String::from).to_vec();
        for name in &names {
            store.write_atomic(name, b"xyz").unwrap();
        }
        store.delete_many(&names).unwrap();
        // One call for the whole batch, no fault draw, objects gone.
        assert_eq!(store.inner().deletes, vec![names]);
        assert_eq!(store.ops(), 0);
        assert!(store.list().unwrap().is_empty());
    }

    #[test]
    fn torn_keep_and_flip_bit_shape_their_draws() {
        let plan = StorageFaultPlan::new(0xabc, StorageFaultRates::heavy()).unwrap();
        assert_eq!(plan.torn_keep(0, 0, 0), None, "no pending bytes, no tear");
        let mut tore = 0;
        for op in 0..64u64 {
            if let Some(keep) = plan.torn_keep(1, op, 40) {
                assert!(keep < 40);
                tore += 1;
            }
        }
        assert!(tore > 0, "torn_tail 0.5 over 64 crashes drew none");
        let none = StorageFaultPlan::new(0xabc, StorageFaultRates::none()).unwrap();
        assert_eq!(none.torn_keep(1, 3, 40), None);
        assert_eq!(none.flip_bit(1, 3), None);
    }

    #[test]
    fn fuzz_points_are_distinct_sorted_and_in_range() {
        let plan = StorageFaultPlan::new(0x77, StorageFaultRates::none()).unwrap();
        let points = plan.fuzz_points(100, 5);
        assert_eq!(points, plan.fuzz_points(100, 5));
        assert_eq!(points.len(), 5);
        assert!(points.windows(2).all(|w| w[0] < w[1]));
        assert!(points.iter().all(|&p| p < 100));
        // Tiny schedules clamp instead of spinning.
        assert_eq!(plan.fuzz_points(2, 5).len(), 2);
        assert_eq!(plan.fuzz_points(0, 5), Vec::<u64>::new());
    }
}
