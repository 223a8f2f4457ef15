//! The generic worker pool underneath campaign-style orchestration.
//!
//! [`drain_pool`] owns the queue/retry/dead-letter mechanics that used to
//! live inside the campaign runner's worker loop, with the campaign-specific
//! parts (write-ahead journaling, checkpoint-directory lifecycle) injected
//! through [`PoolHooks`]. The scenario-matrix evaluation drains its
//! scenario × tool grid through the same pool with [`NoHooks`], and the
//! map/reduce coordinator drains work-unit leases across worker transports
//! through [`drain_pool_ctx`], so every workload shares one well-tested
//! scheduling core.
//!
//! Semantics inherited by every user:
//!
//! * the unit of scheduling is a [`Lease`]: the job **and its attempt
//!   number travel together**, so a lease stolen by another worker after an
//!   interruption retries at the same attempt instead of burning one retry
//!   per worker that ever held it;
//! * hooks run **under the pool lock** — `on_dequeued` fires before the job
//!   leaves the queue-side critical section (write-ahead), `on_settled`
//!   before the outcome is applied to the queue;
//! * a hook error poisons the pool: workers stop picking up jobs and the
//!   first error is returned;
//! * a failed attempt beyond `max_retries` is dead-lettered with its final
//!   reason, otherwise the job re-enters the queue at `attempt + 1`;
//! * an [`Attempt::Interrupted`] attempt (the worker died underneath the
//!   job) re-enters the queue at the **same** attempt — its phase
//!   checkpoints survive on disk — and the worker that reported it exits,
//!   so surviving workers steal the lease (an idle worker waits for the
//!   in-flight leases to settle before it leaves, so a lease re-queued
//!   after the queue ran dry still finds a taker);
//! * `max_completions` caps completions of *this* drain (used to simulate
//!   interruptions) — in-flight jobs still settle.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// One schedulable unit: a job plus the attempt number it runs at. The
/// attempt is a property of the lease — not of whichever worker happens to
/// hold it — so steals never double-count against the retry budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease<J> {
    /// The job to run.
    pub job: J,
    /// The attempt this lease runs the job at (1-based).
    pub attempt: u32,
}

impl<J> Lease<J> {
    /// A lease of `job` at `attempt`.
    pub fn new(job: J, attempt: u32) -> Self {
        Lease { job, attempt }
    }
}

/// What one attempt of a job produced, as reported by the worker closure of
/// [`drain_pool_ctx`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Attempt<T> {
    /// The attempt succeeded.
    Completed(T),
    /// The attempt genuinely failed (counts against the retry budget).
    Failed(String),
    /// The worker died underneath the job (killed process, lost transport).
    /// The lease is re-queued at the same attempt for another worker to
    /// steal, and the reporting worker exits the drain.
    Interrupted(String),
}

/// How one settled attempt was classified by the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The attempt succeeded; the job is done.
    Completed,
    /// The attempt failed with retries left; the job re-enters the queue.
    Retrying,
    /// The attempt failed and exhausted the retry budget.
    Dead,
    /// The worker died mid-attempt; the lease re-enters the queue at the
    /// same attempt for another worker to steal.
    Interrupted,
}

/// Observer hooks invoked under the pool lock. The default implementations
/// do nothing, so a hook type only overrides what it needs.
pub trait PoolHooks<J, T> {
    /// Error type that aborts the whole drain (e.g. a journal IO failure).
    type Error;

    /// Called write-ahead, while the lock is held, before `run` sees the
    /// job.
    fn on_dequeued(&mut self, job: &J, attempt: u32) -> Result<(), Self::Error> {
        let _ = (job, attempt);
        Ok(())
    }

    /// Called while the lock is held, after `run` returned and the verdict
    /// is known but before the queue or result lists are updated.
    fn on_settled(
        &mut self,
        job: &J,
        attempt: u32,
        result: &Result<T, String>,
        verdict: Verdict,
    ) -> Result<(), Self::Error> {
        let _ = (job, attempt, result, verdict);
        Ok(())
    }
}

/// Hook-less pool use (the scenario evaluation, tests).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHooks;

impl<J, T> PoolHooks<J, T> for NoHooks {
    type Error = std::convert::Infallible;
}

/// Hooks that count pool activity into a [`telemetry::Registry`] and then
/// delegate to an inner hook type.
///
/// Every increment happens under the pool lock and the counters are
/// order-independent totals, so the final snapshot is deterministic even
/// though worker interleaving is not:
///
/// * `pool_dequeued_total` — attempts handed to workers,
/// * `pool_retries_total` — attempts that settled [`Verdict::Retrying`],
/// * `pool_steals_total` — attempts that settled [`Verdict::Interrupted`]
///   (the lease went back for another worker to steal),
/// * `pool_completed_total` / `pool_dead_total` — terminal verdicts,
/// * `pool_queue_depth` — gauge, seeded by [`MeteredHooks::new`] with the
///   initial queue depth (its peak — jobs only re-enter one at a time).
#[derive(Debug)]
pub struct MeteredHooks<'m, H> {
    inner: H,
    metrics: &'m mut telemetry::Registry,
}

impl<'m, H> MeteredHooks<'m, H> {
    /// Wraps `inner`, recording `queue_depth` (the number of jobs about to
    /// be drained) and all subsequent pool activity into `metrics`.
    pub fn new(inner: H, metrics: &'m mut telemetry::Registry, queue_depth: usize) -> Self {
        metrics.gauge_max("pool_queue_depth", queue_depth as i64);
        MeteredHooks { inner, metrics }
    }
}

impl<J, T, H: PoolHooks<J, T>> PoolHooks<J, T> for MeteredHooks<'_, H> {
    type Error = H::Error;

    fn on_dequeued(&mut self, job: &J, attempt: u32) -> Result<(), Self::Error> {
        self.metrics.counter_add("pool_dequeued_total", 1);
        self.inner.on_dequeued(job, attempt)
    }

    fn on_settled(
        &mut self,
        job: &J,
        attempt: u32,
        result: &Result<T, String>,
        verdict: Verdict,
    ) -> Result<(), Self::Error> {
        let counter = match verdict {
            Verdict::Completed => "pool_completed_total",
            Verdict::Retrying => "pool_retries_total",
            Verdict::Dead => "pool_dead_total",
            Verdict::Interrupted => "pool_steals_total",
        };
        self.metrics.counter_add(counter, 1);
        self.inner.on_settled(job, attempt, result, verdict)
    }
}

/// Scheduling knobs of one [`drain_pool`] invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolConfig {
    /// Worker threads draining the queue (clamped to at least 1).
    pub workers: usize,
    /// Failed attempts beyond this count are dead-lettered (0 = one try).
    pub max_retries: u32,
    /// Stop picking up new jobs once this many completed in this drain.
    pub max_completions: Option<usize>,
}

impl PoolConfig {
    /// A pool with `workers` threads and no retries or caps.
    pub fn workers(workers: usize) -> Self {
        PoolConfig {
            workers,
            max_retries: 0,
            max_completions: None,
        }
    }
}

/// What one [`drain_pool`] invocation produced.
#[derive(Debug)]
pub struct PoolOutcome<J, T> {
    /// Completed jobs with their successful attempt number, in completion
    /// order (nondeterministic across workers — sort by job identity when
    /// determinism matters).
    pub completed: Vec<(J, u32, T)>,
    /// Dead-lettered jobs with their final failure reason.
    pub dead: Vec<(J, String)>,
    /// Leases still queued when the drain ended: the completion cap was
    /// hit, or every worker died before the queue emptied. Nothing was
    /// lost — each abandoned lease resumes at its recorded attempt.
    pub abandoned: Vec<Lease<J>>,
}

struct Shared<'h, J, T, H: PoolHooks<J, T>> {
    queue: VecDeque<Lease<J>>,
    hooks: &'h mut H,
    completions: usize,
    completed: Vec<(J, u32, T)>,
    dead: Vec<(J, String)>,
    failure: Option<H::Error>,
    /// Leases dequeued and not yet settled.
    in_flight: usize,
}

/// Drains `jobs` (each paired with its first attempt number) through `run`
/// on a scoped worker pool.
///
/// # Errors
///
/// Returns the first hook error; job failures are not errors — they are
/// retried and eventually dead-lettered into the outcome.
pub fn drain_pool<J, T, H, R>(
    jobs: impl IntoIterator<Item = (J, u32)>,
    config: &PoolConfig,
    hooks: &mut H,
    run: R,
) -> Result<PoolOutcome<J, T>, H::Error>
where
    J: Send,
    T: Send,
    H: PoolHooks<J, T> + Send,
    H::Error: Send,
    R: Fn(&J, u32) -> Result<T, String> + Sync,
{
    // Unit contexts: plain threads with no per-worker state, and plain
    // failures (never Interrupted), so the classic retry semantics hold.
    let contexts = vec![(); config.workers.max(1)];
    drain_pool_ctx(
        jobs.into_iter()
            .map(|(job, attempt)| Lease { job, attempt }),
        config,
        hooks,
        contexts,
        |(), job, attempt| {
            Ok(match run(job, attempt) {
                Ok(value) => Attempt::Completed(value),
                Err(reason) => Attempt::Failed(reason),
            })
        },
    )
}

/// [`drain_pool`] generalized over per-worker contexts: each worker thread
/// exclusively owns one element of `contexts` (a transport to a worker
/// process, a journal handle, …) for its whole life. The worker count is
/// `contexts.len()`.
///
/// `run` classifies each attempt as [`Attempt::Completed`],
/// [`Attempt::Failed`] (burns a retry) or [`Attempt::Interrupted`] (the
/// context's backing worker died: the lease is re-queued **at the same
/// attempt** for a surviving worker to steal, and this worker exits).
/// `run` returning `Err` poisons the pool like a hook error.
///
/// # Errors
///
/// Returns the first hook or `run` error.
pub fn drain_pool_ctx<J, T, H, C, R>(
    jobs: impl IntoIterator<Item = Lease<J>>,
    config: &PoolConfig,
    hooks: &mut H,
    contexts: Vec<C>,
    run: R,
) -> Result<PoolOutcome<J, T>, H::Error>
where
    J: Send,
    T: Send,
    C: Send,
    H: PoolHooks<J, T> + Send,
    H::Error: Send,
    R: Fn(&mut C, &J, u32) -> Result<Attempt<T>, H::Error> + Sync,
{
    let shared = Mutex::new(Shared {
        queue: jobs.into_iter().collect(),
        hooks,
        completions: 0,
        completed: Vec::new(),
        dead: Vec::new(),
        failure: None,
        in_flight: 0,
    });
    // Signalled whenever a lease settles, so idle workers re-check the queue.
    let settled = Condvar::new();

    std::thread::scope(|scope| {
        for mut context in contexts {
            let (shared, settled) = (&shared, &settled);
            let run = &run;
            scope.spawn(move || worker_loop(shared, settled, config, &mut context, run));
        }
    });

    let state = shared
        .into_inner()
        .expect("no worker panicked with the lock");
    if let Some(error) = state.failure {
        return Err(error);
    }
    Ok(PoolOutcome {
        completed: state.completed,
        dead: state.dead,
        abandoned: state.queue.into_iter().collect(),
    })
}

fn worker_loop<J, T, H, C, R>(
    shared: &Mutex<Shared<'_, J, T, H>>,
    settled: &Condvar,
    config: &PoolConfig,
    context: &mut C,
    run: &R,
) where
    H: PoolHooks<J, T>,
    R: Fn(&mut C, &J, u32) -> Result<Attempt<T>, H::Error>,
{
    loop {
        let Lease { job, attempt } = {
            let mut guard = shared.lock().expect("pool lock");
            let lease = loop {
                if guard.failure.is_some() {
                    return;
                }
                if let Some(limit) = config.max_completions {
                    if guard.completions >= limit {
                        return;
                    }
                }
                if let Some(lease) = guard.queue.pop_front() {
                    break lease;
                }
                // An in-flight lease can still come back (an interrupted
                // worker re-queues it and leaves), so stay until none is
                // left to settle.
                if guard.in_flight == 0 {
                    return;
                }
                guard = settled.wait(guard).expect("pool lock");
            };
            if let Err(e) = guard.hooks.on_dequeued(&lease.job, lease.attempt) {
                guard.failure = Some(e);
                settled.notify_all();
                return;
            }
            guard.in_flight += 1;
            lease
        };

        let outcome = run(context, &job, attempt);
        let mut guard = shared.lock().expect("pool lock");
        guard.in_flight -= 1;
        // Waiters wake once this critical section has applied the outcome.
        settled.notify_all();
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => {
                guard.failure = Some(e);
                return;
            }
        };
        let (result, verdict) = match outcome {
            Attempt::Completed(value) => (Ok(value), Verdict::Completed),
            Attempt::Failed(reason) if attempt > config.max_retries => (Err(reason), Verdict::Dead),
            Attempt::Failed(reason) => (Err(reason), Verdict::Retrying),
            Attempt::Interrupted(reason) => (Err(reason), Verdict::Interrupted),
        };
        if let Err(e) = guard.hooks.on_settled(&job, attempt, &result, verdict) {
            guard.failure = Some(e);
            return;
        }
        match (result, verdict) {
            (Ok(value), _) => {
                guard.completions += 1;
                guard.completed.push((job, attempt, value));
            }
            (Err(reason), Verdict::Dead) => guard.dead.push((job, reason)),
            (Err(_), Verdict::Interrupted) => {
                // The same attempt goes back at the head of the queue: its
                // phase checkpoints are still on disk, so the stealing
                // worker resumes mid-pipeline instead of restarting. This
                // worker's backing process is gone — exit the loop.
                guard.queue.push_front(Lease { job, attempt });
                return;
            }
            (Err(_), _) => guard.queue.push_back(Lease::new(job, attempt + 1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

    fn first_attempts<J>(jobs: impl IntoIterator<Item = J>) -> Vec<(J, u32)> {
        jobs.into_iter().map(|j| (j, 1)).collect()
    }

    #[test]
    fn drains_every_job_exactly_once_across_workers() {
        let jobs: Vec<u32> = (0..50).collect();
        let outcome = drain_pool(
            first_attempts(jobs),
            &PoolConfig::workers(8),
            &mut NoHooks,
            |&job, _| Ok(job * 2),
        )
        .unwrap();
        assert!(outcome.dead.is_empty());
        assert!(outcome.abandoned.is_empty());
        let mut done: Vec<(u32, u32)> = outcome
            .completed
            .into_iter()
            .map(|(j, _, v)| (j, v))
            .collect();
        done.sort_unstable();
        assert_eq!(done.len(), 50);
        for (j, v) in done {
            assert_eq!(v, j * 2);
        }
    }

    #[test]
    fn retries_then_dead_letters() {
        let calls = AtomicU32::new(0);
        let config = PoolConfig {
            workers: 1,
            max_retries: 2,
            max_completions: None,
        };
        let outcome = drain_pool(
            first_attempts(["flaky"]),
            &config,
            &mut NoHooks,
            |_, attempt| {
                calls.fetch_add(1, Ordering::SeqCst);
                if attempt < 3 {
                    Err(format!("attempt {attempt} failed"))
                } else {
                    Ok(attempt)
                }
            },
        )
        .unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        assert_eq!(outcome.completed[0].1, 3);

        let outcome = drain_pool(first_attempts(["doomed"]), &config, &mut NoHooks, |_, _| {
            Err::<u32, _>("always".into())
        })
        .unwrap();
        assert!(outcome.completed.is_empty());
        assert_eq!(outcome.dead, vec![("doomed", "always".to_string())]);
    }

    #[test]
    fn completion_cap_stops_new_work() {
        let config = PoolConfig {
            workers: 1,
            max_retries: 0,
            max_completions: Some(2),
        };
        let outcome = drain_pool(first_attempts(0..10u32), &config, &mut NoHooks, |&j, _| {
            Ok(j)
        })
        .unwrap();
        assert_eq!(outcome.completed.len(), 2);
        // The uncompleted jobs survive as abandoned leases at attempt 1.
        assert_eq!(outcome.abandoned.len(), 8);
        assert!(outcome.abandoned.iter().all(|lease| lease.attempt == 1));
    }

    /// Hooks observe the write-ahead order and can abort the drain.
    struct Recording {
        events: Vec<String>,
        fail_on_settle: bool,
    }

    impl PoolHooks<&'static str, u32> for Recording {
        type Error = String;

        fn on_dequeued(&mut self, job: &&'static str, attempt: u32) -> Result<(), String> {
            self.events.push(format!("dequeued {job} #{attempt}"));
            Ok(())
        }

        fn on_settled(
            &mut self,
            job: &&'static str,
            attempt: u32,
            _result: &Result<u32, String>,
            verdict: Verdict,
        ) -> Result<(), String> {
            self.events
                .push(format!("settled {job} #{attempt} {verdict:?}"));
            if self.fail_on_settle {
                return Err("journal broke".into());
            }
            Ok(())
        }
    }

    #[test]
    fn hooks_fire_write_ahead_and_see_verdicts() {
        let mut hooks = Recording {
            events: Vec::new(),
            fail_on_settle: false,
        };
        let config = PoolConfig {
            workers: 1,
            max_retries: 1,
            max_completions: None,
        };
        drain_pool(first_attempts(["j"]), &config, &mut hooks, |_, attempt| {
            if attempt == 1 {
                Err("noise".into())
            } else {
                Ok(attempt)
            }
        })
        .unwrap();
        assert_eq!(
            hooks.events,
            vec![
                "dequeued j #1",
                "settled j #1 Retrying",
                "dequeued j #2",
                "settled j #2 Completed",
            ]
        );
    }

    #[test]
    fn metered_hooks_count_deterministically_across_workers() {
        let drain = |workers: usize| {
            let mut metrics = telemetry::Registry::new();
            let config = PoolConfig {
                workers,
                max_retries: 1,
                max_completions: None,
            };
            let jobs: Vec<u32> = (0..20).collect();
            let depth = jobs.len();
            let mut hooks = MeteredHooks::new(NoHooks, &mut metrics, depth);
            drain_pool(first_attempts(jobs), &config, &mut hooks, |&j, attempt| {
                if j % 5 == 0 && attempt == 1 {
                    Err("noise".into())
                } else if j == 15 {
                    Err("always".into())
                } else {
                    Ok(j)
                }
            })
            .unwrap();
            metrics.snapshot()
        };
        let snap = drain(1);
        // Same totals regardless of worker interleaving.
        assert_eq!(snap, drain(7));
        let metrics = telemetry::Registry::parse_snapshot(&snap).unwrap();
        // Jobs 0,5,10 retry once then complete; job 15 retries then dies.
        assert_eq!(metrics.counter("pool_completed_total"), 19);
        assert_eq!(metrics.counter("pool_retries_total"), 4);
        assert_eq!(metrics.counter("pool_dead_total"), 1);
        assert_eq!(metrics.counter("pool_dequeued_total"), 24);
        assert_eq!(metrics.gauge("pool_queue_depth"), 20);
    }

    #[test]
    fn hook_errors_abort_the_drain() {
        let mut hooks = Recording {
            events: Vec::new(),
            fail_on_settle: true,
        };
        let err = drain_pool(
            first_attempts(["a", "b"]),
            &PoolConfig::workers(1),
            &mut hooks,
            |_, _| Ok(1),
        )
        .unwrap_err();
        assert_eq!(err, "journal broke");
        // The drain stopped after the first settle: "b" was never dequeued.
        assert_eq!(hooks.events.len(), 2);
    }

    /// A fake transport for two workers: whichever worker first touches
    /// `victim` dies under it (an interrupted worker leaves the pool), and
    /// every other attempt completes. Keying the death on the first touch
    /// rather than on a worker id makes the steal happen under every
    /// thread interleaving.
    fn kill_first_victim_attempt<E>(
        killed: &AtomicBool,
    ) -> impl Fn(&mut (), &&str, u32) -> Result<Attempt<u32>, E> + Sync + '_ {
        move |_worker, job, attempt| {
            if *job == "victim" && !killed.swap(true, Ordering::SeqCst) {
                return Ok(Attempt::Interrupted("kill -9".into()));
            }
            Ok(Attempt::Completed(attempt))
        }
    }

    #[test]
    fn a_stolen_lease_retries_at_the_same_attempt() {
        // Regression: a lease interrupted on one worker
        // must be re-run by a surviving worker at the SAME attempt — the
        // steal must not count against the retry budget of either worker.
        let config = PoolConfig {
            workers: 2,
            max_retries: 0, // any burned retry would dead-letter the job
            max_completions: None,
        };
        let mut hooks = Recording {
            events: Vec::new(),
            fail_on_settle: false,
        };
        let killed = AtomicBool::new(false);
        let outcome = drain_pool_ctx(
            [Lease::new("victim", 1), Lease::new("other", 1)],
            &config,
            &mut hooks,
            vec![(), ()],
            kill_first_victim_attempt(&killed),
        )
        .unwrap();
        assert!(outcome.dead.is_empty(), "{:?}", outcome.dead);
        assert!(outcome.abandoned.is_empty());
        let mut done: Vec<(&str, u32)> = outcome
            .completed
            .iter()
            .map(|(j, attempt, _)| (*j, *attempt))
            .collect();
        done.sort_unstable();
        // Both jobs completed at attempt 1: the interruption burned nothing.
        assert_eq!(done, vec![("other", 1), ("victim", 1)]);
        // The hooks saw the interruption verdict (write-ahead, same attempt)
        // before the completing steal.
        assert!(hooks
            .events
            .contains(&"settled victim #1 Interrupted".to_string()));
        assert!(hooks
            .events
            .contains(&"settled victim #1 Completed".to_string()));
    }

    #[test]
    fn all_workers_dead_leaves_abandoned_leases() {
        let config = PoolConfig {
            workers: 2,
            max_retries: 2,
            max_completions: None,
        };
        let contexts = vec![0usize, 1usize];
        let outcome = drain_pool_ctx(
            (0..6u32).map(|j| Lease::new(j, 1)),
            &config,
            &mut NoHooks,
            contexts,
            |_worker, _job, _attempt| Ok(Attempt::<u32>::Interrupted("lost".into())),
        )
        .unwrap();
        assert!(outcome.completed.is_empty());
        assert!(outcome.dead.is_empty());
        // Two workers each died on their first lease; the two leases went
        // back to the queue head, so all six jobs survive at attempt 1.
        assert_eq!(outcome.abandoned.len(), 6);
        assert!(outcome.abandoned.iter().all(|lease| lease.attempt == 1));
    }

    #[test]
    fn interruptions_count_as_steals_in_the_metrics() {
        let mut metrics = telemetry::Registry::new();
        let config = PoolConfig {
            workers: 2,
            max_retries: 0,
            max_completions: None,
        };
        let mut hooks = MeteredHooks::new(NoHooks, &mut metrics, 2);
        let killed = AtomicBool::new(false);
        drain_pool_ctx(
            [Lease::new("victim", 1), Lease::new("other", 1)],
            &config,
            &mut hooks,
            vec![(), ()],
            kill_first_victim_attempt(&killed),
        )
        .unwrap();
        let snapshot = telemetry::Registry::parse_snapshot(&metrics.snapshot()).unwrap();
        assert_eq!(snapshot.counter("pool_steals_total"), 1);
        assert_eq!(snapshot.counter("pool_completed_total"), 2);
        assert_eq!(snapshot.counter("pool_retries_total"), 0);
        assert_eq!(snapshot.counter("pool_dead_total"), 0);
    }
}
