//! Request/response vocabulary of the serving layer.
//!
//! A [`DecomposeRequest`] names everything the engine needs (image,
//! bank, depth, boundary) plus the two serving-only attributes the
//! admission policy consumes: a [`Priority`] class and an optional
//! deadline on the service clock. Every accepted request terminates in
//! exactly one [`ServeResult`]: a [`DecomposeResponse`] or a typed
//! [`Rejection`] — nothing is silently dropped.
//!
//! All times are `f64` seconds on the *service clock*: wall seconds
//! since service start in the live server, virtual seconds in the
//! discrete-event simulator. The policy state machines never read a
//! clock themselves; callers pass `now` in, which is what makes the
//! simulator byte-reproducible.

use dwt::engine::PlanShape;
use dwt::{dwt2d, Boundary, FilterBank, Matrix, Pyramid};

/// Scheduling class of a request. Order is meaningful: a class sheds
/// only strictly smaller classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Bulk/offline work; first to go under overload.
    Batch = 0,
    /// Default class.
    Standard = 1,
    /// Latency-sensitive, usually deadline-carrying work.
    Interactive = 2,
}

impl Priority {
    /// All classes, ascending.
    pub const ALL: [Priority; 3] = [Priority::Batch, Priority::Standard, Priority::Interactive];

    /// Stable label for machine-readable output.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Batch => "batch",
            Priority::Standard => "standard",
            Priority::Interactive => "interactive",
        }
    }
}

/// One unit of work submitted to the service.
#[derive(Debug, Clone, PartialEq)]
pub struct DecomposeRequest {
    /// The image to decompose.
    pub image: Matrix,
    /// Analysis filter bank.
    pub bank: FilterBank,
    /// Decomposition depth.
    pub levels: usize,
    /// Boundary extension policy.
    pub mode: Boundary,
    /// Scheduling class.
    pub priority: Priority,
    /// Absolute deadline on the service clock; a request past it is
    /// fast-failed instead of executed.
    pub deadline: Option<f64>,
}

impl DecomposeRequest {
    /// A standard-priority, deadline-free request with periodic
    /// boundaries (the engine's exact-reconstruction mode).
    pub fn new(image: Matrix, bank: FilterBank, levels: usize) -> Self {
        DecomposeRequest {
            image,
            bank,
            levels,
            mode: Boundary::Periodic,
            priority: Priority::Standard,
            deadline: None,
        }
    }

    /// Same request in a different scheduling class.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Same request with an absolute deadline on the service clock.
    pub fn with_deadline(mut self, deadline: f64) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Same request with a different boundary policy.
    pub fn with_mode(mut self, mode: Boundary) -> Self {
        self.mode = mode;
        self
    }

    /// The plan-cache key this request maps to. Requests with equal
    /// shapes are batchable into one engine dispatch and share a cached
    /// [`dwt::engine::DwtPlan`].
    pub fn shape(&self) -> PlanShape {
        PlanShape::new(
            self.image.rows(),
            self.image.cols(),
            &self.bank,
            self.levels,
            self.mode,
        )
    }

    /// Whether the request is past its deadline at `now`.
    pub fn expired(&self, now: f64) -> bool {
        self.deadline.is_some_and(|d| d < now)
    }

    /// Admission-time validation (geometry is validated again when the
    /// plan is built; this catches it before it occupies queue space).
    /// A non-finite pixel is refused too: a NaN would spread through the
    /// pyramid while every error bound, a maximum that skips NaN, stayed
    /// finite. One pass over the pixels, which vectorises.
    pub fn validate(&self) -> Result<(), Rejection> {
        let invalid = |detail| Err(Rejection::Invalid { detail });
        let dims = dwt2d::validate_dims(
            self.image.rows(),
            self.image.cols(),
            self.bank.len(),
            self.levels,
        );
        if let Err(e) = dims {
            return invalid(e.to_string());
        }
        match self.image.data().iter().filter(|v| !v.is_finite()).count() {
            0 => Ok(()),
            n => invalid(format!("{n} non-finite pixel(s)")),
        }
    }
}

/// Why a request did not execute. Every variant is a *terminal* outcome
/// delivered to the submitter — the rejection taxonomy is part of the
/// API, not a log line.
#[derive(Debug, Clone, PartialEq)]
pub enum Rejection {
    /// The shard's admission queue was full and no lower-priority entry
    /// was available to shed.
    QueueFull {
        /// Queue depth at rejection time.
        depth: usize,
    },
    /// Evicted from the queue by an arriving request of *strictly*
    /// higher class.
    Shed {
        /// The class that displaced this request.
        by: Priority,
    },
    /// Past its deadline (fast-failed at admission or at dequeue,
    /// whichever noticed first).
    DeadlineExpired {
        /// The request's deadline.
        deadline: f64,
        /// Service-clock time when expiry was detected.
        now: f64,
    },
    /// Malformed request (geometry the engine cannot serve).
    Invalid {
        /// Human-readable cause.
        detail: String,
    },
    /// Submitted after graceful drain began.
    Draining,
    /// The request's shard is down past its restart budget and no
    /// surviving shard could take the work (every failover target was
    /// also failed, full, or draining).
    ShardFailed {
        /// The failed home shard.
        shard: usize,
        /// Worker restarts burned before the shard was declared failed.
        restarts: u32,
    },
    /// Quarantined by the poisoned-batch protocol: executing this
    /// request kept panicking the worker, including on a solo retry.
    Requeued {
        /// Execution attempts made before quarantine.
        attempts: u32,
    },
}

impl Rejection {
    /// The variant's counter bucket.
    pub fn kind(&self) -> RejectKind {
        match self {
            Rejection::QueueFull { .. } => RejectKind::QueueFull,
            Rejection::Shed { .. } => RejectKind::Shed,
            Rejection::DeadlineExpired { .. } => RejectKind::DeadlineExpired,
            Rejection::Invalid { .. } => RejectKind::Invalid,
            Rejection::Draining => RejectKind::Draining,
            Rejection::ShardFailed { .. } => RejectKind::ShardFailed,
            Rejection::Requeued { .. } => RejectKind::Requeued,
        }
    }
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::QueueFull { depth } => {
                write!(f, "admission queue full at depth {depth}")
            }
            Rejection::Shed { by } => {
                write!(f, "shed by arriving {} work", by.label())
            }
            Rejection::DeadlineExpired { deadline, now } => {
                write!(f, "deadline {deadline} s expired at service time {now} s")
            }
            Rejection::Invalid { detail } => write!(f, "invalid request: {detail}"),
            Rejection::Draining => write!(f, "service is draining"),
            Rejection::ShardFailed { shard, restarts } => {
                write!(f, "shard {shard} failed after {restarts} restarts")
            }
            Rejection::Requeued { attempts } => {
                write!(f, "quarantined after {attempts} execution attempts")
            }
        }
    }
}

impl std::error::Error for Rejection {}

/// Counter buckets of the rejection taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectKind {
    /// See [`Rejection::QueueFull`].
    QueueFull = 0,
    /// See [`Rejection::Shed`].
    Shed = 1,
    /// See [`Rejection::DeadlineExpired`].
    DeadlineExpired = 2,
    /// See [`Rejection::Invalid`].
    Invalid = 3,
    /// See [`Rejection::Draining`].
    Draining = 4,
    /// See [`Rejection::ShardFailed`].
    ShardFailed = 5,
    /// See [`Rejection::Requeued`].
    Requeued = 6,
}

impl RejectKind {
    /// All buckets, in counter order.
    pub const ALL: [RejectKind; 7] = [
        RejectKind::QueueFull,
        RejectKind::Shed,
        RejectKind::DeadlineExpired,
        RejectKind::Invalid,
        RejectKind::Draining,
        RejectKind::ShardFailed,
        RejectKind::Requeued,
    ];

    /// Stable label for machine-readable output.
    pub fn label(self) -> &'static str {
        match self {
            RejectKind::QueueFull => "queue_full",
            RejectKind::Shed => "shed",
            RejectKind::DeadlineExpired => "deadline_expired",
            RejectKind::Invalid => "invalid",
            RejectKind::Draining => "draining",
            RejectKind::ShardFailed => "shard_failed",
            RejectKind::Requeued => "requeued",
        }
    }
}

/// Successful completion of a request.
#[derive(Debug, Clone, PartialEq)]
pub struct DecomposeResponse {
    /// The decomposition. Exact responses are bit-identical to a direct
    /// engine call on the same input — batching and caching never
    /// change arithmetic. Degraded responses (`error_bound > 0`) carry
    /// an exact LL plane and threshold-quantized detail planes.
    pub pyramid: Pyramid,
    /// Whether the plan came from the cache.
    pub cache_hit: bool,
    /// How many requests shared this engine dispatch.
    pub batch_size: usize,
    /// Seconds spent queued (dispatch start − arrival).
    pub wait_s: f64,
    /// Seconds of service (dispatch start → completion).
    pub service_s: f64,
    /// Whether this is a degraded-mode (bounded-error) response.
    pub degraded: bool,
    /// Largest absolute per-coefficient error the response can carry
    /// versus the exact decomposition (`0.0` for exact responses; the
    /// LL plane is always exact either way).
    pub error_bound: f64,
}

impl DecomposeResponse {
    /// End-to-end latency on the service clock.
    pub fn latency_s(&self) -> f64 {
        self.wait_s + self.service_s
    }
}

/// The one terminal outcome every accepted request resolves to.
pub type ServeResult = Result<DecomposeResponse, Rejection>;

/// A request inside the pipeline, tagged with the driver's bookkeeping
/// handle (`T` is a response ticket in the live server, an index in the
/// simulator).
#[derive(Debug)]
pub struct Entry<T> {
    /// Service-wide request id (admission order).
    pub id: u64,
    /// Arrival time on the service clock.
    pub arrival: f64,
    /// The request itself.
    pub req: DecomposeRequest,
    /// Execution attempts that ended in a worker panic (poisoned-batch
    /// protocol). Entries with `attempts > 0` are retried *solo* — the
    /// batcher neither coalesces behind them nor picks them as mates —
    /// so one suspect cannot take a second batch down with it.
    pub attempts: u32,
    /// Driver bookkeeping handle.
    pub tag: T,
}

impl<T> Entry<T> {
    /// Whether the entry must dispatch alone (it already survived a
    /// batch panic and is under suspicion).
    pub fn solo(&self) -> bool {
        self.attempts > 0
    }
}
