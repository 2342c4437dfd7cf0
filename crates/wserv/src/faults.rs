//! Deterministic fault injection for the serving layer, plus the
//! policies that survive it.
//!
//! A [`ShardFaultPlan`] lifts the PR-2 fault model (seeded, pre-computed
//! schedules — no wall clock, no mutable RNG) from the SPMD simulators
//! into `wserv`. Every injection decision is either an explicit literal
//! event or a pure hash of the plan seed and a canonical coordinate, so
//! the discrete-event simulator replays byte-identically from the
//! seed and the live threaded driver injects the *same* faults at the
//! same shard-local dispatch indices.
//!
//! Injected fault classes:
//!
//! * **worker panics** — the shard's worker thread dies at the entry of
//!   one dispatch (a one-shot event; the supervisor restarts it);
//! * **permanent shard crashes** — the worker dies at *every* dispatch
//!   from an index on, so restarts keep failing until the supervisor's
//!   restart budget is exhausted and the shard is failed over;
//! * **stalls/slowdowns** — a dispatch window on one shard executes
//!   slower by a factor (a throttled or degraded core);
//! * **poison requests** — executing a specific request panics
//!   mid-batch, exercising the poisoned-batch quarantine (retry
//!   batchmates solo, quarantine the request that keeps killing
//!   workers).
//!
//! The survival machinery is configured by [`SupervisorPolicy`]
//! (restart budget and backoff) and [`DegradedPolicy`]
//! (bounded-error approximate responses under reduced capacity). Both
//! are clock-free and shared verbatim by the live server and the sim.

use dwt_mimd::CheckpointCodec;

/// Hash-domain separator for the poison-request decision stream.
const KIND_POISON: u64 = 0x706f_6973; // "pois"

/// One-shot worker death: shard `shard`'s worker panics at the entry of
/// its `at_dispatch`-th dispatch (shard-local, 0-based, monotonically
/// increasing across restarts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPanic {
    /// The affected shard.
    pub shard: usize,
    /// The shard-local dispatch index at whose entry the worker dies.
    pub at_dispatch: u64,
}

/// Permanent shard crash: the worker dies at the entry of every
/// dispatch with index `>= at_dispatch`, so each supervisor restart
/// dies again until the restart budget is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardCrash {
    /// The affected shard.
    pub shard: usize,
    /// First dispatch index at which the worker dies (and keeps dying).
    pub at_dispatch: u64,
}

/// Shard slowdown: dispatches with index in `[from_dispatch,
/// to_dispatch)` execute `factor`× slower.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardStall {
    /// The affected shard.
    pub shard: usize,
    /// Execution-time multiplier (> 1 slows the shard down).
    pub factor: f64,
    /// First affected dispatch index.
    pub from_dispatch: u64,
    /// One past the last affected dispatch index.
    pub to_dispatch: u64,
}

/// A deterministic, seeded shard-fault schedule. See the module docs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShardFaultPlan {
    seed: u64,
    panics: Vec<WorkerPanic>,
    crashes: Vec<ShardCrash>,
    stalls: Vec<ShardStall>,
    poison_ids: Vec<u64>,
    poison_rate: f64,
}

impl ShardFaultPlan {
    /// The empty plan: no faults, zero overhead.
    pub fn none() -> Self {
        Self::default()
    }

    /// An empty plan carrying `seed` for the probabilistic streams.
    pub fn seeded(seed: u64) -> Self {
        ShardFaultPlan {
            seed,
            ..Self::default()
        }
    }

    /// Add a one-shot worker panic on `shard` at dispatch `at_dispatch`.
    pub fn with_worker_panic(mut self, shard: usize, at_dispatch: u64) -> Self {
        self.panics.push(WorkerPanic { shard, at_dispatch });
        self
    }

    /// Add a permanent crash of `shard` from dispatch `at_dispatch` on.
    pub fn with_shard_crash(mut self, shard: usize, at_dispatch: u64) -> Self {
        self.crashes.push(ShardCrash { shard, at_dispatch });
        self
    }

    /// Add a `factor`× slowdown of `shard` over dispatches `[from, to)`.
    pub fn with_stall(mut self, shard: usize, factor: f64, from: u64, to: u64) -> Self {
        self.stalls.push(ShardStall {
            shard,
            factor,
            from_dispatch: from,
            to_dispatch: to,
        });
        self
    }

    /// Poison the request with service-wide id `id`: executing it
    /// panics the worker (inside the quarantine guard).
    pub fn with_poison(mut self, id: u64) -> Self {
        self.poison_ids.push(id);
        self
    }

    /// Poison a seeded fraction of all requests (decision hashed from
    /// the seed and the request id).
    pub fn with_poison_rate(mut self, rate: f64) -> Self {
        self.poison_rate = rate;
        self
    }

    /// Whether the plan injects nothing (the fault-free fast path).
    pub fn is_empty(&self) -> bool {
        self.panics.is_empty()
            && self.crashes.is_empty()
            && self.stalls.is_empty()
            && self.poison_ids.is_empty()
            && self.poison_rate == 0.0
    }

    /// Validate against a shard count. Returns a human-readable reason
    /// on the first malformed entry.
    pub fn validate(&self, nshards: usize) -> Result<(), String> {
        if !((0.0..=1.0).contains(&self.poison_rate) && self.poison_rate.is_finite()) {
            return Err(format!("poison rate {} outside [0, 1]", self.poison_rate));
        }
        for p in &self.panics {
            if p.shard >= nshards {
                return Err(format!(
                    "panic on shard {} with only {nshards} shards",
                    p.shard
                ));
            }
        }
        for c in &self.crashes {
            if c.shard >= nshards {
                return Err(format!(
                    "crash of shard {} with only {nshards} shards",
                    c.shard
                ));
            }
        }
        for s in &self.stalls {
            if s.shard >= nshards {
                return Err(format!(
                    "stall on shard {} with only {nshards} shards",
                    s.shard
                ));
            }
            if !(s.factor >= 1.0 && s.factor.is_finite()) {
                return Err(format!("stall factor {} must be finite and >= 1", s.factor));
            }
            if s.from_dispatch >= s.to_dispatch {
                return Err(format!(
                    "stall window [{}, {}) is empty",
                    s.from_dispatch, s.to_dispatch
                ));
            }
        }
        Ok(())
    }

    /// Whether the worker of `shard` dies at the entry of dispatch
    /// `dispatch` (one-shot panic scheduled exactly there, or a
    /// permanent crash window covering it).
    pub fn worker_dies(&self, shard: usize, dispatch: u64) -> bool {
        self.panics
            .iter()
            .any(|p| p.shard == shard && p.at_dispatch == dispatch)
            || self.permanently_crashed(shard, dispatch)
    }

    /// Whether `shard` is inside a permanent-crash window at `dispatch`.
    pub fn permanently_crashed(&self, shard: usize, dispatch: u64) -> bool {
        self.crashes
            .iter()
            .any(|c| c.shard == shard && dispatch >= c.at_dispatch)
    }

    /// Shards with a permanent crash scheduled anywhere, ascending.
    pub fn crashed_shards(&self, nshards: usize) -> Vec<usize> {
        (0..nshards)
            .filter(|&s| self.crashes.iter().any(|c| c.shard == s))
            .collect()
    }

    /// Execution-time multiplier for `shard` at dispatch `dispatch`
    /// (product of all active stall windows; 1.0 when none).
    pub fn stall_factor(&self, shard: usize, dispatch: u64) -> f64 {
        self.stalls
            .iter()
            .filter(|s| s.shard == shard && (s.from_dispatch..s.to_dispatch).contains(&dispatch))
            .map(|s| s.factor)
            .product()
    }

    /// Whether executing the request with service-wide id `id` panics.
    pub fn poisoned(&self, id: u64) -> bool {
        if self.poison_ids.contains(&id) {
            return true;
        }
        self.poison_rate > 0.0 && decision(self.seed, KIND_POISON, id) < self.poison_rate
    }
}

/// Supervision policy: how hard the service tries to keep a shard
/// alive before failing it over, and what a restart costs.
///
/// Backoffs are seconds on the service clock: wall seconds in the live
/// driver (the supervisor really backs off), virtual seconds in the
/// simulator; both drivers charge them to the
/// [`perfbudget::Category::FaultRecovery`] lane. Every entry re-queued
/// or re-routed by a recovery is billed a fixed 5 µs state handoff to
/// the same lane. How a death is *noticed* is not policy: it is an event
/// in both drivers — the simulator meets it at the dispatch that dies,
/// a live worker thread reports its own exit to a sleeping supervisor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorPolicy {
    /// Worker restarts allowed per shard before the shard is declared
    /// failed and its work re-routed to survivors.
    pub max_restarts: u32,
    /// Backoff charged before the first restart.
    pub backoff_base_s: f64,
    /// Multiplier applied to the backoff on each further restart.
    pub backoff_mult: f64,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            max_restarts: 3,
            backoff_base_s: 1e-3,
            backoff_mult: 2.0,
        }
    }
}

impl SupervisorPolicy {
    /// No restart budget: the first death fails the shard over.
    pub fn disabled() -> Self {
        SupervisorPolicy {
            max_restarts: 0,
            ..Self::default()
        }
    }

    /// Backoff charged before restart `restart` (1-based: the first
    /// restart waits the base backoff).
    pub fn backoff_s(&self, restart: u32) -> f64 {
        self.backoff_base_s * self.backoff_mult.powi(restart.saturating_sub(1) as i32)
    }

    /// Validate the policy. Returns a human-readable reason on failure.
    pub fn validate(&self) -> Result<(), String> {
        let base = self.backoff_base_s;
        if !(base >= 0.0 && base.is_finite()) {
            return Err(format!("backoff_base_s = {base} must be finite and >= 0"));
        }
        if !(self.backoff_mult >= 1.0 && self.backoff_mult.is_finite()) {
            return Err(format!(
                "backoff_mult = {} must be finite and >= 1",
                self.backoff_mult
            ));
        }
        Ok(())
    }
}

/// Degraded-mode serving: under reduced capacity, answer
/// lower-priority work with a bounded-error approximate response
/// instead of shipping the full pyramid (or rejecting outright).
///
/// The approximation is the `WaveletQuant` move from the checkpoint
/// codec: the LL plane ships exact, detail coefficients at or below
/// `threshold` are zeroed and survivors are quantized to `step`. The
/// per-coefficient error is bounded by `threshold + step / 2` — the
/// bound every degraded response carries and the chaos tests assert
/// end-to-end against the exact oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradedPolicy {
    /// Detail magnitudes at or below this are zeroed.
    pub threshold: f64,
    /// Uniform quantizer step for surviving detail coefficients
    /// (`0.0` keeps survivors exact).
    pub step: f64,
    /// Queue depth (as a fraction of capacity, in `[0, 1]`) at or
    /// above which a healthy shard serves degraded. A shard covering
    /// for a failed peer serves degraded regardless.
    pub queue_high_water: f64,
}

impl Default for DegradedPolicy {
    fn default() -> Self {
        DegradedPolicy {
            threshold: 1e-2,
            step: 1e-2,
            queue_high_water: 0.75,
        }
    }
}

impl DegradedPolicy {
    /// Largest absolute error the degraded response can introduce into
    /// one detail coefficient (the LL plane is always exact).
    pub fn error_bound(&self) -> f64 {
        let (threshold, step) = (self.threshold, self.step);
        CheckpointCodec::WaveletQuant { threshold, step }.tolerance()
    }

    /// Validate the policy. Returns a human-readable reason on failure.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [("threshold", self.threshold), ("step", self.step)] {
            if !(v >= 0.0 && v.is_finite()) {
                return Err(format!("{name} = {v} must be finite and >= 0"));
            }
        }
        if !((0.0..=1.0).contains(&self.queue_high_water) && self.queue_high_water.is_finite()) {
            return Err(format!(
                "queue_high_water = {} outside [0, 1]",
                self.queue_high_water
            ));
        }
        Ok(())
    }
}

/// Hash-domain separator for the probabilistic bit-flip stream.
const KIND_WIRE_FLIP: u64 = 0x666c_6970; // "flip"
/// Hash-domain separator for the probabilistic reset stream.
const KIND_WIRE_RESET: u64 = 0x7273_6574; // "rset"
/// Hash-domain separator for bit-position entropy.
const KIND_WIRE_BITPOS: u64 = 0x6270_6f73; // "bpos"

/// Direction of a wire transfer, half of a fault coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireDir {
    /// Request path: client frames toward the server.
    ClientToServer = 0,
    /// Response path: server frames toward the client.
    ServerToClient = 1,
}

/// One scheduled wire fault, resolved by [`WireFaultPlan::decide`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireFault {
    /// Abortive close mid-frame: half the frame is sent, then both
    /// directions break. The peer observes a connection reset.
    Reset,
    /// One bit of the encoded frame flips in flight; the peer's
    /// checksum catches it. `entropy` seeds the bit position.
    BitFlip {
        /// Deterministic entropy; the injector reduces it modulo the
        /// frame's bit length to pick the flipped bit.
        entropy: u64,
    },
    /// The sender stalls `seconds` before the frame goes out (a
    /// congested or half-dead link).
    Stall {
        /// Stall duration, wall seconds.
        seconds: f64,
    },
}

/// One literal wire-fault coordinate: connection `conn`, direction
/// `dir`, cumulative frame index `frame` (monotone across reconnects —
/// see `transport::WireClock`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireEvent {
    /// Connection id (the client-declared id from the handshake, so
    /// coordinates are stable across transports and runs).
    pub conn: u64,
    /// Transfer direction.
    pub dir: WireDir,
    /// Cumulative frame index on `(conn, dir)`.
    pub frame: u64,
}

/// A deterministic, seeded wire-fault schedule, the transport-level
/// sibling of [`ShardFaultPlan`]: literal events plus hashed rates, all
/// pure functions of the seed and a `(conn, dir, frame)` coordinate, so
/// the in-memory shim transport and the TCP transport inject
/// byte-identical fault sequences from the same seed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WireFaultPlan {
    seed: u64,
    resets: Vec<WireEvent>,
    bitflips: Vec<WireEvent>,
    stalls: Vec<(WireEvent, f64)>,
    flip_rate: f64,
    reset_rate: f64,
}

impl WireFaultPlan {
    /// The empty plan: a perfect wire.
    pub fn none() -> Self {
        Self::default()
    }

    /// An empty plan carrying `seed` for the probabilistic streams.
    pub fn seeded(seed: u64) -> Self {
        WireFaultPlan {
            seed,
            ..Self::default()
        }
    }

    /// Schedule an abortive reset mid-frame at `(conn, dir, frame)`.
    pub fn with_reset(mut self, conn: u64, dir: WireDir, frame: u64) -> Self {
        self.resets.push(WireEvent { conn, dir, frame });
        self
    }

    /// Schedule a single-bit corruption caught by the peer's checksum.
    pub fn with_bitflip(mut self, conn: u64, dir: WireDir, frame: u64) -> Self {
        self.bitflips.push(WireEvent { conn, dir, frame });
        self
    }

    /// Schedule a `seconds` stall before the frame is sent.
    pub fn with_stall(mut self, conn: u64, dir: WireDir, frame: u64, seconds: f64) -> Self {
        self.stalls.push((WireEvent { conn, dir, frame }, seconds));
        self
    }

    /// Flip a bit in a seeded fraction of all frames.
    pub fn with_flip_rate(mut self, rate: f64) -> Self {
        self.flip_rate = rate;
        self
    }

    /// Abortively reset a seeded fraction of all frames mid-send.
    pub fn with_reset_rate(mut self, rate: f64) -> Self {
        self.reset_rate = rate;
        self
    }

    /// Whether the plan injects nothing (the fault-free fast path).
    pub fn is_empty(&self) -> bool {
        self.resets.is_empty()
            && self.bitflips.is_empty()
            && self.stalls.is_empty()
            && self.flip_rate == 0.0
            && self.reset_rate == 0.0
    }

    /// Validate the plan. Returns a human-readable reason on the first
    /// malformed entry.
    pub fn validate(&self) -> Result<(), String> {
        for (name, rate) in [
            ("flip_rate", self.flip_rate),
            ("reset_rate", self.reset_rate),
        ] {
            if !((0.0..=1.0).contains(&rate) && rate.is_finite()) {
                return Err(format!("{name} = {rate} outside [0, 1]"));
            }
        }
        for (ev, s) in &self.stalls {
            if !(*s >= 0.0 && s.is_finite()) {
                return Err(format!(
                    "stall of {s} s at conn {} frame {} must be finite and >= 0",
                    ev.conn, ev.frame
                ));
            }
        }
        Ok(())
    }

    /// The fault (if any) scheduled for frame `frame` on `(conn, dir)`.
    /// Precedence when several match one coordinate: reset, bit-flip,
    /// stall — at most one fault fires per frame.
    pub fn decide(&self, conn: u64, dir: WireDir, frame: u64) -> Option<WireFault> {
        let hit = |evs: &[WireEvent]| {
            evs.iter()
                .any(|e| e.conn == conn && e.dir == dir && e.frame == frame)
        };
        let coord = wire_coord(conn, dir, frame);
        if hit(&self.resets)
            || (self.reset_rate > 0.0
                && decision(self.seed, KIND_WIRE_RESET, coord) < self.reset_rate)
        {
            return Some(WireFault::Reset);
        }
        if hit(&self.bitflips)
            || (self.flip_rate > 0.0 && decision(self.seed, KIND_WIRE_FLIP, coord) < self.flip_rate)
        {
            return Some(WireFault::BitFlip {
                entropy: decision_bits(self.seed, KIND_WIRE_BITPOS, coord),
            });
        }
        self.stalls
            .iter()
            .find(|(e, _)| e.conn == conn && e.dir == dir && e.frame == frame)
            .map(|&(_, seconds)| WireFault::Stall { seconds })
    }
}

/// Fold a wire coordinate into one u64 for the decision hash.
fn wire_coord(conn: u64, dir: WireDir, frame: u64) -> u64 {
    let mut h = conn.wrapping_mul(0x9e3779b97f4a7c15) ^ ((dir as u64) << 63);
    h ^= frame.wrapping_add(0x9e3779b97f4a7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    h ^ (h >> 31)
}

/// Raw decision bits: a pure function of the seed and a coordinate.
/// SplitMix64 finalizer — the same construction `paragon::faults` uses.
fn decision_bits(seed: u64, kind: u64, coord: u64) -> u64 {
    let mut h = seed ^ kind.wrapping_mul(0x9e3779b97f4a7c15);
    for v in [coord, kind] {
        h ^= v.wrapping_add(0x9e3779b97f4a7c15);
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d049bb133111eb);
        h ^= h >> 31;
    }
    h
}

/// Uniform value in `[0, 1)` from the decision stream.
fn decision(seed: u64, kind: u64, coord: u64) -> f64 {
    (decision_bits(seed, kind, coord) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let p = ShardFaultPlan::none();
        assert!(p.is_empty());
        assert!(!p.worker_dies(0, 0));
        assert!(!p.permanently_crashed(1, 99));
        assert_eq!(p.stall_factor(2, 5), 1.0);
        assert!(!p.poisoned(17));
        assert!(p.crashed_shards(4).is_empty());
        assert!(p.validate(4).is_ok());
    }

    #[test]
    fn panic_is_one_shot_and_crash_is_permanent() {
        let p = ShardFaultPlan::none()
            .with_worker_panic(1, 3)
            .with_shard_crash(2, 5);
        assert!(!p.worker_dies(1, 2));
        assert!(p.worker_dies(1, 3));
        assert!(!p.worker_dies(1, 4), "a panic fires exactly once");
        assert!(!p.worker_dies(2, 4));
        assert!(p.worker_dies(2, 5));
        assert!(p.worker_dies(2, 17), "a crash keeps firing");
        assert!(p.permanently_crashed(2, 9));
        assert!(!p.permanently_crashed(1, 9));
        assert_eq!(p.crashed_shards(4), vec![2]);
    }

    #[test]
    fn stall_windows_stack_like_slowdowns() {
        let p = ShardFaultPlan::none()
            .with_stall(0, 2.0, 2, 6)
            .with_stall(0, 3.0, 4, 8);
        assert_eq!(p.stall_factor(0, 1), 1.0);
        assert_eq!(p.stall_factor(0, 2), 2.0);
        assert_eq!(p.stall_factor(0, 5), 6.0);
        assert_eq!(p.stall_factor(0, 7), 3.0);
        assert_eq!(p.stall_factor(1, 5), 1.0);
    }

    #[test]
    fn poison_decisions_are_deterministic_and_seed_sensitive() {
        let a = ShardFaultPlan::seeded(42).with_poison_rate(0.3);
        let b = ShardFaultPlan::seeded(42).with_poison_rate(0.3);
        let c = ShardFaultPlan::seeded(43).with_poison_rate(0.3);
        let va: Vec<bool> = (0..256).map(|id| a.poisoned(id)).collect();
        let vb: Vec<bool> = (0..256).map(|id| b.poisoned(id)).collect();
        let vc: Vec<bool> = (0..256).map(|id| c.poisoned(id)).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc, "different seeds must differ somewhere");
        let rate = va.iter().filter(|&&x| x).count() as f64 / 256.0;
        assert!((rate - 0.3).abs() < 0.12, "empirical poison rate {rate}");
        assert!(ShardFaultPlan::none().with_poison(9).poisoned(9));
    }

    #[test]
    fn supervisor_backoff_grows_exponentially() {
        let s = SupervisorPolicy {
            max_restarts: 4,
            backoff_base_s: 1e-3,
            backoff_mult: 2.0,
        };
        assert!((s.backoff_s(1) - 1e-3).abs() < 1e-15);
        assert!((s.backoff_s(2) - 2e-3).abs() < 1e-15);
        assert!((s.backoff_s(3) - 4e-3).abs() < 1e-15);
    }

    #[test]
    fn validation_rejects_malformed_plans_and_policies() {
        assert!(ShardFaultPlan::none()
            .with_worker_panic(4, 0)
            .validate(4)
            .is_err());
        assert!(ShardFaultPlan::none()
            .with_shard_crash(9, 0)
            .validate(4)
            .is_err());
        assert!(ShardFaultPlan::none()
            .with_stall(0, 0.5, 0, 1)
            .validate(4)
            .is_err());
        assert!(ShardFaultPlan::none()
            .with_stall(0, 2.0, 3, 3)
            .validate(4)
            .is_err());
        assert!(ShardFaultPlan::none()
            .with_poison_rate(1.5)
            .validate(4)
            .is_err());
        assert!(SupervisorPolicy {
            backoff_mult: 0.5,
            ..SupervisorPolicy::default()
        }
        .validate()
        .is_err());
        assert!(SupervisorPolicy {
            backoff_base_s: f64::NAN,
            ..SupervisorPolicy::default()
        }
        .validate()
        .is_err());
        assert!(DegradedPolicy {
            threshold: -1.0,
            ..DegradedPolicy::default()
        }
        .validate()
        .is_err());
        assert!(DegradedPolicy {
            queue_high_water: 2.0,
            ..DegradedPolicy::default()
        }
        .validate()
        .is_err());
        assert!(DegradedPolicy::default().validate().is_ok());
    }

    #[test]
    fn wire_plan_decides_deterministically_with_precedence() {
        let p = WireFaultPlan::seeded(1996)
            .with_reset(1, WireDir::ClientToServer, 3)
            .with_bitflip(1, WireDir::ClientToServer, 3)
            .with_bitflip(1, WireDir::ServerToClient, 0)
            .with_stall(2, WireDir::ClientToServer, 5, 0.25);
        assert!(!p.is_empty());
        assert!(p.validate().is_ok());
        // Reset outranks the bit flip scheduled at the same coordinate.
        assert_eq!(
            p.decide(1, WireDir::ClientToServer, 3),
            Some(WireFault::Reset)
        );
        assert!(matches!(
            p.decide(1, WireDir::ServerToClient, 0),
            Some(WireFault::BitFlip { .. })
        ));
        assert_eq!(
            p.decide(2, WireDir::ClientToServer, 5),
            Some(WireFault::Stall { seconds: 0.25 })
        );
        // Directions are independent coordinates.
        assert_eq!(p.decide(1, WireDir::ServerToClient, 3), None);
        assert_eq!(p.decide(1, WireDir::ClientToServer, 4), None);
        assert_eq!(
            WireFaultPlan::none().decide(0, WireDir::ClientToServer, 0),
            None
        );
    }

    #[test]
    fn wire_rates_are_seed_stable_and_roughly_calibrated() {
        let a = WireFaultPlan::seeded(7).with_flip_rate(0.2);
        let b = WireFaultPlan::seeded(7).with_flip_rate(0.2);
        let c = WireFaultPlan::seeded(8).with_flip_rate(0.2);
        let sample = |p: &WireFaultPlan| -> Vec<bool> {
            (0..512)
                .map(|i| p.decide(3, WireDir::ClientToServer, i).is_some())
                .collect()
        };
        assert_eq!(sample(&a), sample(&b));
        assert_ne!(sample(&a), sample(&c));
        let rate = sample(&a).iter().filter(|&&x| x).count() as f64 / 512.0;
        assert!((rate - 0.2).abs() < 0.1, "empirical flip rate {rate}");
    }

    #[test]
    fn wire_plan_validation_rejects_bad_rates_and_stalls() {
        assert!(WireFaultPlan::none()
            .with_flip_rate(1.5)
            .validate()
            .is_err());
        assert!(WireFaultPlan::none()
            .with_reset_rate(-0.1)
            .validate()
            .is_err());
        assert!(WireFaultPlan::none()
            .with_stall(0, WireDir::ClientToServer, 0, f64::NAN)
            .validate()
            .is_err());
        assert!(WireFaultPlan::none()
            .with_stall(0, WireDir::ClientToServer, 0, -1.0)
            .validate()
            .is_err());
        assert!(WireFaultPlan::none().validate().is_ok());
    }

    #[test]
    fn degraded_error_bound_matches_the_codec_vocabulary() {
        let d = DegradedPolicy {
            threshold: 0.5,
            step: 0.2,
            queue_high_water: 0.5,
        };
        assert!((d.error_bound() - 0.6).abs() < 1e-15);
    }
}
