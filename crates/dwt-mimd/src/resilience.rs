//! Fault-tolerant execution of the distributed transforms.
//!
//! The deterministic [`FaultPlan`] doubles as a *perfect failure
//! detector*: every rank holds the same plan, so all ranks derive — with
//! no extra communication — which peers will have crashed by any future
//! phase. The recovery protocol exploits this:
//!
//! * work is organised in **roles** (the grid positions of the fault-free
//!   decomposition). Initially role `r` is played by physical rank `r`;
//! * at the start of every level each rank looks one level ahead in the
//!   plan. A rank scheduled to die at or before the *next* level's
//!   handoff (the window is **inclusive** of its end phase: a rank whose
//!   crash fires exactly at that handoff dies at the handoff's entry and
//!   could never ship its state there) is **retired now**;
//! * a retirement triggers a **re-partition of all roles across all
//!   survivors**: estimated remaining work per role (measured level
//!   timings, exchanged at the end of every level) is balanced against
//!   per-rank capacity (thermal speed factor and scheduled slowdowns)
//!   by a deterministic greedy LPT assignment. Migrated role state —
//!   from retiring owners *and* from live ranks the re-partition moves
//!   work away from — ships over the recovery channel
//!   ([`paragon::Ctx::exchange_recovery`]) and is charged to the
//!   `FaultRecovery` budget lane;
//! * because a retiring rank is always still alive at the handoff where
//!   it gives its state away (it was retired one full level before its
//!   crash fires), no role state is ever lost while at least one rank
//!   survives the whole run. If every rank is scheduled to crash the
//!   survivors report a structured [`MimdError::Unrecoverable`] instead
//!   of panicking or deadlocking.
//!
//! Adopted roles are recomputed with exactly the arithmetic the original
//! owner would have used — same filter taps, same accumulation order —
//! so a recovered run is **bit-identical** to the fault-free transform.
//!
//! Each distributed transform has **one** per-rank body, written over a
//! `BTreeMap<role, RoleState>`. This module is the single home of what
//! those bodies share: `Recovery` owns the replicated role assignment
//! and runs the checkpoint handoff, the cost report and the final
//! gather; `RoleState` is the one checkpoint format (stripe, block and
//! reconstruction alike). Under [`ResiliencePolicy::FailFast`] the same
//! bodies run with the identity assignment and the two recovery phases
//! (handoff, cost report) skipped — there is no second program.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use dwt::error::DwtError;
use dwt::matrix::Matrix;
use paragon::{CommError, Ctx, FaultPlan, SpmdError};
use perfbudget::Category;

use crate::checkpoint::{self, CheckpointCodec};
use crate::MimdDwtConfig;

/// What a distributed transform does about ranks the fault plan kills.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ResiliencePolicy {
    /// Run the lean fault-free phase structure (every rank plays its own
    /// role, no handoff or cost-report phases); any injected crash or
    /// unrecovered message loss surfaces as a typed [`MimdError`].
    #[default]
    FailFast,
    /// Checkpoint role state ahead of scheduled crashes and redistribute
    /// dead ranks' tiles to survivors; the run completes bit-identically
    /// to the fault-free transform as long as one rank survives.
    Redistribute,
}

/// Typed failure taxonomy of the distributed transforms.
#[derive(Debug)]
pub enum MimdError {
    /// The transform itself was malformed (dimensions, filter, levels).
    Dwt(DwtError),
    /// The SPMD configuration was rejected up front.
    Spmd(SpmdError),
    /// A rank failed with a communication error the policy does not
    /// recover from.
    Comm {
        /// Physical rank that failed.
        rank: usize,
        /// What it failed with.
        source: CommError,
    },
    /// The configuration of the distributed transform is invalid.
    InvalidConfig {
        /// Human-readable rejection reason.
        detail: String,
    },
    /// The fault schedule destroys state faster than the recovery
    /// protocol can preserve it (e.g. every rank crashes).
    Unrecoverable {
        /// Human-readable description of what was lost.
        detail: String,
    },
}

impl fmt::Display for MimdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MimdError::Dwt(e) => write!(f, "{e}"),
            MimdError::Spmd(e) => write!(f, "{e}"),
            MimdError::Comm { rank, source } => {
                write!(f, "rank {rank} failed: {source}")
            }
            MimdError::InvalidConfig { detail } => {
                write!(f, "invalid distributed-DWT configuration: {detail}")
            }
            MimdError::Unrecoverable { detail } => {
                write!(f, "unrecoverable fault schedule: {detail}")
            }
        }
    }
}

impl Error for MimdError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MimdError::Dwt(e) => Some(e),
            MimdError::Spmd(e) => Some(e),
            MimdError::Comm { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<DwtError> for MimdError {
    fn from(e: DwtError) -> Self {
        MimdError::Dwt(e)
    }
}

impl From<SpmdError> for MimdError {
    fn from(e: SpmdError) -> Self {
        MimdError::Spmd(e)
    }
}

/// Sentinel detail string a rank body reports when the plan leaves no
/// survivor to adopt a role; the driver maps it to
/// [`MimdError::Unrecoverable`].
pub(crate) const ROLE_LOST: &str =
    "every remaining rank is scheduled to crash; role state cannot be preserved";

/// One role reassignment decided at a level handoff. `from` may be a
/// retiring rank (crash scheduled inside the window) or a live survivor
/// the re-partition moves work away from; either way it is still alive
/// at the handoff and ships the checkpoint itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Takeover {
    /// Grid position whose state moves.
    pub role: usize,
    /// Previous owner (still alive at the handoff; ships the checkpoint).
    pub from: usize,
    /// Adopting survivor.
    pub to: usize,
}

/// Deterministic role→rank assignment, advanced level by level from the
/// shared fault plan. Every rank holds an identical tracker, so send
/// plans and takeovers agree without any membership communication.
#[derive(Debug, Clone)]
pub(crate) struct RoleTracker {
    /// `owner[role]` = physical rank currently playing `role`.
    owner: Vec<usize>,
    /// Ranks permanently retired (scheduled to crash inside a window a
    /// past handoff already looked into).
    retired: Vec<bool>,
}

impl RoleTracker {
    pub fn new(nranks: usize) -> Self {
        RoleTracker {
            owner: (0..nranks).collect(),
            retired: vec![false; nranks],
        }
    }

    /// Physical rank currently playing `role`.
    pub fn owner(&self, role: usize) -> usize {
        self.owner[role]
    }

    /// Roles the given rank currently plays, ascending.
    pub fn roles_of(&self, rank: usize) -> Vec<usize> {
        (0..self.owner.len())
            .filter(|&r| self.owner[r] == rank)
            .collect()
    }

    /// Whether a past handoff already retired this rank.
    pub fn is_retired(&self, rank: usize) -> bool {
        self.retired[rank]
    }

    /// Retire every rank whose crash fires **at or before** `window_end`
    /// (callers pass the phase index of the *next* handoff: a crash
    /// scheduled exactly there fires at that handoff's entry, before the
    /// rank could ship anything, so the window must include its end) and
    /// re-partition **all** roles across the survivors.
    ///
    /// The re-partition balances `weights[role]` (estimated remaining
    /// work, e.g. the measured compute seconds of the previous level)
    /// against `capacity[rank]` (relative speed; higher = faster) with a
    /// deterministic greedy LPT assignment: heaviest role first, each
    /// role to the rank finishing it earliest, incumbent owner preferred
    /// on ties so fault-free levels never churn. All inputs derive from
    /// shared data, so every rank computes the identical assignment with
    /// no membership communication.
    ///
    /// Returns the takeovers, sorted by role. Fails with the
    /// [`ROLE_LOST`] protocol error when no survivor remains.
    pub fn step(
        &mut self,
        plan: &FaultPlan,
        window_end: u64,
        weights: &[f64],
        capacity: &[f64],
    ) -> Result<Vec<Takeover>, CommError> {
        let n = self.retired.len();
        debug_assert_eq!(weights.len(), n);
        debug_assert_eq!(capacity.len(), n);
        let newly: Vec<usize> = (0..n)
            .filter(|&r| !self.retired[r] && plan.crash_phase(r).is_some_and(|p| p <= window_end))
            .collect();
        if newly.is_empty() {
            return Ok(Vec::new());
        }
        for &r in &newly {
            self.retired[r] = true;
        }
        if self.retired.iter().all(|&d| d) {
            return Err(CommError::Protocol { detail: ROLE_LOST });
        }

        // LPT: heaviest role first (role index breaks exact-weight ties).
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            weights[b]
                .partial_cmp(&weights[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut load = vec![0.0f64; n];
        let mut takeovers = Vec::new();
        for &role in &order {
            let w = weights[role].max(0.0);
            let finish = |cand: usize, load: &[f64]| (load[cand] + w) / capacity[cand].max(1e-12);
            let mut best = usize::MAX;
            let mut best_t = f64::INFINITY;
            for cand in 0..n {
                if self.retired[cand] {
                    continue;
                }
                let t = finish(cand, &load);
                if t < best_t {
                    best_t = t;
                    best = cand;
                }
            }
            // Prefer the incumbent on ties: fault-free roles stay put.
            let inc = self.owner[role];
            if !self.retired[inc] && finish(inc, &load) <= best_t {
                best = inc;
            }
            load[best] += w;
            if best != self.owner[role] {
                takeovers.push(Takeover {
                    role,
                    from: self.owner[role],
                    to: best,
                });
                self.owner[role] = best;
            }
        }
        takeovers.sort_by_key(|t| t.role);
        Ok(takeovers)
    }
}

/// Per-rank relative capacity for the re-partition cost model, derived
/// from data every rank shares: the machine's thermal speed factors and
/// the fault plan's scheduled slowdowns at the given phase. Higher =
/// faster. Both input factors *multiply* charged time, so capacity is
/// their reciprocal.
fn capacities(ctx: &Ctx, phase: u64) -> Vec<f64> {
    (0..ctx.nranks())
        .map(|r| {
            let thermal = ctx.machine().node_speed_factor(ctx.node_of(r));
            let slow = ctx.fault_plan().slowdown_factor(r, phase);
            1.0 / (thermal * slow).max(1e-12)
        })
        .collect()
}

/// Whether the *next* handoff's [`RoleTracker::step`] would retire
/// anyone, i.e. whether a not-yet-retired rank has a crash scheduled at
/// or before that handoff's lookahead `window_end`. The cost-report
/// phase is only consumed by a re-partition, so when this is false the
/// report runs empty (every rank evaluates the identical predicate from
/// the shared plan, keeping weights — stale but identical — in
/// lockstep).
fn report_needed(plan: &FaultPlan, tracker: &RoleTracker, nranks: usize, window_end: u64) -> bool {
    (0..nranks)
        .any(|r| !tracker.is_retired(r) && plan.crash_phase(r).is_some_and(|p| p <= window_end))
}

/// Detail sub-bands one role produced at one level, placed at
/// `(k_row, k_col)` of the level's sub-band (a stripe has `k_col == 0`).
#[derive(Debug, Clone)]
pub(crate) struct DetailTile {
    pub k_row: usize,
    pub k_col: usize,
    pub lh: Matrix,
    pub hl: Matrix,
    pub hh: Matrix,
}

/// Per-role state carried between levels — and the checkpoint shipped
/// when the role changes hands, in the stripe and block layouts alike.
#[derive(Debug, Clone)]
pub(crate) struct RoleState {
    /// Level input: the role's tile of the current LL band (for the
    /// reconstruction, its partial image).
    pub input: Matrix,
    /// Detail tiles of completed levels. Always empty in the
    /// reconstruction: its detail bands are the globally known input,
    /// cut locally by whoever plays the role, so only `input` ships.
    pub details: Vec<DetailTile>,
}

impl RoleState {
    pub fn new(input: Matrix) -> Self {
        RoleState {
            input,
            details: Vec::new(),
        }
    }

    fn detail_coeffs(&self) -> usize {
        self.details
            .iter()
            .map(|d| 3 * d.lh.rows() * d.lh.cols())
            .sum()
    }

    /// Coefficients held: the dense (raw) checkpoint size, and the
    /// role's share of the final gather.
    fn coeffs(&self) -> usize {
        self.input.rows() * self.input.cols() + self.detail_coeffs()
    }
}

/// Apply the configured checkpoint codec to a role state about to ship
/// and return its wire size. The LL input plane always ships raw (it
/// seeds every remaining level); only completed detail planes are
/// thresholded + quantized. Codec compute is charged to the
/// fault-recovery lane on the sender.
fn encode_checkpoint(ctx: &mut Ctx, cfg: &MimdDwtConfig, st: &mut RoleState) -> usize {
    match cfg.checkpoint_codec {
        CheckpointCodec::Raw => st.coeffs() * cfg.pixel_bytes,
        CheckpointCodec::WaveletQuant { threshold, step } => {
            let mut stats = checkpoint::PlaneStats::default();
            for d in &mut st.details {
                for m in [&mut d.lh, &mut d.hl, &mut d.hh] {
                    stats.absorb(checkpoint::encode_plane(m, threshold, step));
                }
            }
            ctx.charge_as(checkpoint::codec_ops(stats.total), Category::FaultRecovery);
            st.input.rows() * st.input.cols() * cfg.pixel_bytes
                + checkpoint::encoded_bytes(stats, cfg.pixel_bytes)
        }
    }
}

/// Charge the receive-side decode of a compressed checkpoint (sparse
/// planes are expanded back to dense) to the fault-recovery lane.
fn decode_checkpoint_charge(ctx: &mut Ctx, cfg: &MimdDwtConfig, st: &RoleState) {
    if cfg.checkpoint_codec != CheckpointCodec::Raw {
        ctx.charge_as(
            checkpoint::codec_ops(st.detail_coeffs()),
            Category::FaultRecovery,
        );
    }
}

/// The recovery side of a rank body: the replicated role assignment and
/// the three collective phases that depend on it. Every rank advances an
/// identical copy in lockstep from shared data (the fault plan, the
/// machine table, the published costs), so send plans and takeovers
/// agree without any membership communication.
///
/// Under [`ResiliencePolicy::FailFast`] the assignment stays the
/// identity and [`Recovery::handoff`] and the cost report inside
/// [`Recovery::end_level`] run no phase at all.
pub(crate) struct Recovery {
    resilient: bool,
    tracker: RoleTracker,
    /// Estimated per-role work for the re-partition cost model: seeded
    /// analytically by the transform (tile sizes), then replaced by
    /// measured level timings published in each level's cost report.
    weights: Vec<f64>,
    /// Collective phases one resilient level of the calling transform
    /// executes, handoff and closing barrier included: the size of the
    /// crash look-ahead window. Checked against the schedule actually
    /// executed at every level's barrier (debug builds).
    level_phases: u64,
    /// Levels not yet started; after [`Recovery::handoff`], the levels
    /// still to come after the current one.
    remaining: usize,
    /// Phase index of the current level's handoff.
    p0: u64,
}

impl Recovery {
    pub fn new(ctx: &Ctx, cfg: &MimdDwtConfig, level_phases: u64, weights: Vec<f64>) -> Self {
        debug_assert_eq!(weights.len(), ctx.nranks());
        Recovery {
            resilient: cfg.resilience == ResiliencePolicy::Redistribute,
            tracker: RoleTracker::new(ctx.nranks()),
            weights,
            level_phases,
            remaining: cfg.levels,
            p0: 0,
        }
    }

    /// Physical rank currently playing `role`.
    pub fn owner(&self, role: usize) -> usize {
        self.tracker.owner(role)
    }

    /// Roles the given rank currently plays, ascending.
    pub fn roles_of(&self, rank: usize) -> Vec<usize> {
        self.tracker.roles_of(rank)
    }

    /// End of the look-ahead window of a handoff at phase `p0` with
    /// `remaining` levels after its own: one level ahead, **inclusive**
    /// of the next handoff phase itself — a crash firing exactly there
    /// dies at its entry and could never ship its state. The last
    /// level's window also covers the trailing gather.
    fn window_end(&self, p0: u64, remaining: usize) -> u64 {
        if remaining == 0 {
            u64::MAX
        } else {
            p0 + self.level_phases
        }
    }

    /// Checkpoint handoff, the first phase of a resilient level: retire
    /// every rank doomed inside the look-ahead window and re-partition
    /// all roles across the survivors, shipping each moved role's state
    /// from its previous owner. That owner is by construction still
    /// alive here (it was retired a full level before its crash fires),
    /// so the recovery channel always delivers its state.
    ///
    /// At the first level nothing ships: the transform's input is
    /// globally known, so after this call every player cuts the state of
    /// [`Recovery::roles_of`] itself directly (adopters included).
    pub fn handoff(
        &mut self,
        ctx: &mut Ctx,
        cfg: &MimdDwtConfig,
        roles: &mut BTreeMap<usize, RoleState>,
    ) -> Result<(), CommError> {
        let first = self.remaining == cfg.levels;
        self.remaining -= 1;
        if !self.resilient {
            return Ok(());
        }
        let me = ctx.rank();
        self.p0 = ctx.next_phase();
        let window_end = self.window_end(self.p0, self.remaining);
        let caps = capacities(ctx, self.p0);
        let tracker = &mut self.tracker;
        let takeovers = tracker.step(ctx.fault_plan(), window_end, &self.weights, &caps)?;
        let mut sends: Vec<(usize, (usize, RoleState), usize)> = Vec::new();
        if !first {
            for t in takeovers.iter().filter(|t| t.from == me) {
                let mut st = roles.remove(&t.role).ok_or(CommError::Protocol {
                    detail: "takeover of a role this rank does not hold",
                })?;
                let bytes = encode_checkpoint(ctx, cfg, &mut st);
                sends.push((t.to, (t.role, st), bytes));
            }
        }
        for (_, (role, st)) in ctx.exchange_recovery(sends)? {
            decode_checkpoint_charge(ctx, cfg, &st);
            roles.insert(role, st);
        }
        Ok(())
    }

    /// Close a level: the cost report (resilient runs only), then the
    /// end-of-level barrier — the paper's per-level exchange boundary.
    ///
    /// Cost report: every rank publishes its roles' measured compute
    /// seconds (`cost`) so the next handoff's re-partition works from
    /// identical weights on every rank. Ranks already dead by this phase
    /// are skipped (they hold no roles and cannot receive);
    /// retired-but-alive ranks may keep stale weights safely — they own
    /// nothing, so their local assignment decides no sends.
    ///
    /// Traffic cut: the report's only consumer is the next handoff's
    /// re-partition, which runs only when a rank retires there. When no
    /// not-yet-retired rank is doomed inside that handoff's look-ahead
    /// window — a predicate every rank evaluates identically from the
    /// shared plan — the phase runs empty and the (stale but identical)
    /// weights stand. Local weights are deliberately not updated either:
    /// a one-sided update would desynchronize the replicated LPT inputs.
    pub fn end_level(
        &mut self,
        ctx: &mut Ctx,
        cost: &BTreeMap<usize, f64>,
    ) -> Result<(), CommError> {
        if !self.resilient {
            return ctx.barrier();
        }
        let (me, nranks) = (ctx.rank(), ctx.nranks());
        let report_phase = ctx.next_phase();
        let needed = self.remaining > 0 && {
            let p0_next = report_phase + 2; // barrier, then the next handoff
            let window_end_next = self.window_end(p0_next, self.remaining - 1);
            report_needed(ctx.fault_plan(), &self.tracker, nranks, window_end_next)
        };
        let mut sends: Vec<(usize, (usize, f64), usize)> = Vec::new();
        if needed {
            let plan = ctx.fault_plan();
            for (&a, &c) in cost {
                self.weights[a] = c;
                for j in 0..nranks {
                    if j == me || plan.crash_phase(j).is_some_and(|p| p <= report_phase) {
                        continue;
                    }
                    sends.push((j, (a, c), std::mem::size_of::<f64>()));
                }
            }
        }
        for (_, (a, c)) in ctx.exchange_reliable(sends)? {
            self.weights[a] = c;
        }
        ctx.barrier()?;
        debug_assert_eq!(
            ctx.next_phase() - self.p0,
            self.level_phases,
            "the transform's *_LEVEL_PHASES constant is out of step with the level it runs"
        );
        Ok(())
    }

    /// Final gather of every role's coefficients (timing only; the data
    /// itself is returned through the SPMD outputs), rooted at the rank
    /// playing role 0 — a live rank even when physical rank 0 crashed.
    /// A rank holding no coefficients has nothing to send.
    pub fn gather(
        &self,
        ctx: &mut Ctx,
        cfg: &MimdDwtConfig,
        roles: &BTreeMap<usize, RoleState>,
    ) -> Result<(), CommError> {
        let root = self.owner(0);
        let mine: usize = roles.values().map(RoleState::coeffs).sum();
        let out = if ctx.rank() == root || mine == 0 {
            Vec::new()
        } else {
            vec![(root, (), mine * cfg.pixel_bytes)]
        };
        ctx.exchange::<()>(out)?;
        Ok(())
    }
}

/// Fold the per-rank outputs of a rank body (each a list of
/// `(role, output)` pairs) into a role-indexed vector under the given
/// policy: fail-fast turns any failure into a typed error, redistribute
/// tolerates the planned crashes.
pub(crate) fn collect_outputs<T>(
    policy: ResiliencePolicy,
    outputs: Vec<Result<Vec<(usize, T)>, CommError>>,
    nranks: usize,
) -> Result<Vec<T>, MimdError> {
    match policy {
        // Identity roles: rank order is role order.
        ResiliencePolicy::FailFast => Ok(collect_failfast(outputs)?
            .into_iter()
            .flatten()
            .map(|(_, out)| out)
            .collect()),
        ResiliencePolicy::Redistribute => collect_roles(outputs, nranks),
    }
}

/// Fold per-rank SPMD outputs of a fail-fast run, converting the first
/// failure into a typed error. An injected crash is preferred as the
/// reported cause: peers of a crashed rank fail with secondary
/// guard-loss protocol errors that would otherwise mask the root cause.
/// Among several crashes the *earliest phase* wins (ties broken by
/// rank): a rank dying later cannot be the root cause of an earlier
/// failure, whatever its rank number.
fn collect_failfast<T>(outputs: Vec<Result<T, CommError>>) -> Result<Vec<T>, MimdError> {
    let mut outs = Vec::with_capacity(outputs.len());
    let mut first_crash: Option<(usize, CommError)> = None;
    let mut first_other: Option<(usize, CommError)> = None;
    for (rank, out) in outputs.into_iter().enumerate() {
        match out {
            Ok(o) => outs.push(o),
            Err(source) => {
                if let CommError::Crashed { phase, .. } = source {
                    // Ranks iterate ascending, so strict `<` keeps the
                    // lowest rank among same-phase crashes.
                    let earlier = match &first_crash {
                        Some((_, CommError::Crashed { phase: best, .. })) => phase < *best,
                        _ => true,
                    };
                    if earlier {
                        first_crash = Some((rank, source));
                    }
                } else if first_other.is_none() {
                    first_other = Some((rank, source));
                }
            }
        }
    }
    match first_crash.or(first_other) {
        Some((rank, source)) => Err(MimdError::Comm { rank, source }),
        None => Ok(outs),
    }
}

/// Fold per-rank SPMD outputs of a resilient run into a role-indexed
/// vector, tolerating the planned crashes and converting everything else
/// into typed errors. `T` is the per-role output type.
fn collect_roles<T>(
    outputs: Vec<Result<Vec<(usize, T)>, CommError>>,
    nranks: usize,
) -> Result<Vec<T>, MimdError> {
    let mut by_role: Vec<Option<T>> = (0..nranks).map(|_| None).collect();
    for (rank, out) in outputs.into_iter().enumerate() {
        match out {
            Ok(pairs) => {
                for (role, v) in pairs {
                    if by_role[role].replace(v).is_some() {
                        return Err(MimdError::Unrecoverable {
                            detail: format!("role {role} produced by two ranks"),
                        });
                    }
                }
            }
            // A planned crash: its roles were redistributed beforehand.
            Err(CommError::Crashed { .. }) => {}
            Err(CommError::Protocol { detail }) if detail == ROLE_LOST => {
                return Err(MimdError::Unrecoverable {
                    detail: ROLE_LOST.into(),
                })
            }
            Err(source) => return Err(MimdError::Comm { rank, source }),
        }
    }
    by_role
        .into_iter()
        .enumerate()
        .map(|(role, v)| {
            v.ok_or_else(|| MimdError::Unrecoverable {
                detail: format!("no surviving rank produced role {role}"),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: usize) -> Vec<f64> {
        vec![1.0; n]
    }

    #[test]
    fn identity_without_faults() {
        let mut t = RoleTracker::new(4);
        let plan = FaultPlan::none();
        assert!(t
            .step(&plan, 100, &uniform(4), &uniform(4))
            .unwrap()
            .is_empty());
        for r in 0..4 {
            assert_eq!(t.owner(r), r);
            assert_eq!(t.roles_of(r), vec![r]);
        }
    }

    #[test]
    fn crash_retires_the_rank_and_rebalances_all_roles() {
        let mut t = RoleTracker::new(4);
        let plan = FaultPlan::none().with_crash(1, 5);
        // Window ending before the crash: nothing moves.
        assert!(t
            .step(&plan, 4, &uniform(4), &uniform(4))
            .unwrap()
            .is_empty());
        // Window whose end the crash lands on: rank 1 retires and the
        // re-partition spreads the load (uniform weights, 4 roles over 3
        // survivors: 0 keeps role 0, rank 2 adopts role 1, rank 3 ends
        // up with roles 2 and 3).
        let tk = t.step(&plan, 5, &uniform(4), &uniform(4)).unwrap();
        assert_eq!(tk.len(), 2);
        assert_eq!((tk[0].role, tk[0].from, tk[0].to), (1, 1, 2));
        assert_eq!((tk[1].role, tk[1].from, tk[1].to), (2, 2, 3));
        assert_eq!(t.roles_of(0), vec![0]);
        assert_eq!(t.roles_of(2), vec![1]);
        assert_eq!(t.roles_of(3), vec![2, 3]);
        // Idempotent: the same window never re-retires.
        assert!(t
            .step(&plan, 5, &uniform(4), &uniform(4))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn boundary_crash_at_window_end_is_retired_in_time() {
        // Regression: a crash scheduled *exactly* at the next handoff
        // phase fires at that phase's entry, so the lookahead window must
        // be inclusive of its end — the old strict `<` comparison let
        // this rank slip through and crash mid-level unplanned.
        let mut t = RoleTracker::new(3);
        let plan = FaultPlan::none().with_crash(2, 7);
        let tk = t.step(&plan, 7, &uniform(3), &uniform(3)).unwrap();
        assert!(t.retired[2]);
        assert!(tk.iter().any(|t| t.role == 2 && t.from == 2));
        assert!(t.roles_of(2).is_empty());
    }

    #[test]
    fn co_doomed_ranks_retire_together_and_load_spreads() {
        let mut t = RoleTracker::new(4);
        let plan = FaultPlan::none().with_crash(1, 3).with_crash(2, 4);
        let tk = t.step(&plan, 10, &uniform(4), &uniform(4)).unwrap();
        // Both 1 and 2 retire together; their roles split across the two
        // survivors instead of piling onto one adopter.
        assert_eq!(tk.len(), 2);
        assert_eq!(t.roles_of(0), vec![0, 2]);
        assert_eq!(t.roles_of(3), vec![1, 3]);
    }

    #[test]
    fn adopted_roles_move_again_when_the_adopter_dies() {
        let mut t = RoleTracker::new(3);
        let plan = FaultPlan::none().with_crash(0, 2).with_crash(1, 8);
        t.step(&plan, 4, &uniform(3), &uniform(3)).unwrap();
        // Rank 0 retires; balance over {1, 2}: owners become [1, 2, 2].
        assert_eq!(t.roles_of(1), vec![0]);
        assert_eq!(t.roles_of(2), vec![1, 2]);
        let tk = t.step(&plan, 9, &uniform(3), &uniform(3)).unwrap();
        // Rank 1 retires; its single role moves to the last survivor.
        assert_eq!(tk.len(), 1);
        assert_eq!(t.roles_of(2), vec![0, 1, 2]);
    }

    #[test]
    fn faster_survivors_absorb_more_roles() {
        let mut t = RoleTracker::new(3);
        let plan = FaultPlan::none().with_crash(0, 0);
        // Rank 2 is twice as fast as rank 1: it should end up with two
        // of the three uniform-weight roles.
        let caps = vec![1.0, 1.0, 2.0];
        t.step(&plan, 1, &uniform(3), &caps).unwrap();
        assert_eq!(t.roles_of(1), vec![1]);
        assert_eq!(t.roles_of(2), vec![0, 2]);
    }

    #[test]
    fn total_loss_is_a_structured_error() {
        let mut t = RoleTracker::new(2);
        let plan = FaultPlan::none().with_crash(0, 1).with_crash(1, 2);
        let err = t.step(&plan, 10, &uniform(2), &uniform(2)).unwrap_err();
        assert!(matches!(err, CommError::Protocol { detail } if detail == ROLE_LOST));
    }

    #[test]
    fn failfast_prefers_earliest_crash_then_lowest_rank() {
        // Rank 0 crashes *later* than rank 1; the earlier crash is the
        // root cause even though it has the higher rank number.
        let outs: Vec<Result<u32, CommError>> = vec![
            Err(CommError::Crashed { rank: 0, phase: 9 }),
            Err(CommError::Crashed { rank: 1, phase: 3 }),
        ];
        assert!(matches!(
            collect_failfast(outs).unwrap_err(),
            MimdError::Comm {
                rank: 1,
                source: CommError::Crashed { phase: 3, .. }
            }
        ));

        // Same phase: the lower rank wins the tie.
        let outs: Vec<Result<u32, CommError>> = vec![
            Err(CommError::Crashed { rank: 0, phase: 3 }),
            Err(CommError::Crashed { rank: 1, phase: 3 }),
        ];
        assert!(matches!(
            collect_failfast(outs).unwrap_err(),
            MimdError::Comm { rank: 0, .. }
        ));

        // A crash beats a lower-rank secondary protocol error.
        let outs: Vec<Result<u32, CommError>> = vec![
            Err(CommError::Incomplete {
                expected: 2,
                got: 1,
            }),
            Err(CommError::Crashed { rank: 1, phase: 5 }),
        ];
        assert!(matches!(
            collect_failfast(outs).unwrap_err(),
            MimdError::Comm {
                rank: 1,
                source: CommError::Crashed { .. }
            }
        ));
    }

    #[test]
    fn collect_roles_tolerates_planned_crashes_only() {
        let outs: Vec<Result<Vec<(usize, u32)>, CommError>> = vec![
            Ok(vec![(0, 10)]),
            Err(CommError::Crashed { rank: 1, phase: 3 }),
            Ok(vec![(1, 11), (2, 12)]),
        ];
        assert_eq!(collect_roles(outs, 3).unwrap(), vec![10, 11, 12]);

        let outs: Vec<Result<Vec<(usize, u32)>, CommError>> = vec![
            Ok(vec![(0, 10)]),
            Err(CommError::Incomplete {
                expected: 2,
                got: 1,
            }),
        ];
        assert!(matches!(
            collect_roles(outs, 2).unwrap_err(),
            MimdError::Comm { rank: 1, .. }
        ));

        let outs: Vec<Result<Vec<(usize, u32)>, CommError>> = vec![
            Ok(vec![(0, 10)]),
            Err(CommError::Crashed { rank: 1, phase: 0 }),
        ];
        assert!(matches!(
            collect_roles(outs, 2).unwrap_err(),
            MimdError::Unrecoverable { .. }
        ));
    }
}
