//! The host-side phase profiler.
//!
//! The profiler attributes *host* wall-clock nanoseconds per pipeline phase
//! (scatter / apply / frontier rebuild). [`pipeline::run`](crate::pipeline::run)
//! measures each run locally and publishes one [`PhaseProfile`] via
//! [`record_run_profile`] into a **thread-local** accumulator, drained by
//! [`take_thread_phase_profile`]. A campaign executing units on worker threads
//! therefore charges wall-clock to the specific unit that spent it, immune to
//! concurrent runs on other threads; see `docs/observability.md`.
//!
//! These are measurements of the simulator on this machine, not of the simulated
//! accelerator, and they are deliberately kept out of
//! [`RunResult`](crate::RunResult) and every deterministic artifact.

use std::cell::Cell;

thread_local! {
    static THREAD_SCATTER_NS: Cell<u64> = const { Cell::new(0) };
    static THREAD_APPLY_NS: Cell<u64> = const { Cell::new(0) };
    static THREAD_FRONTIER_NS: Cell<u64> = const { Cell::new(0) };
}

/// Host wall-clock nanoseconds spent per pipeline phase.
///
/// These are measurements of the *simulator* on this machine, not of the simulated
/// accelerator; the simulated per-phase cycle breakdown lives in
/// [`PhaseBreakdown`](crate::pipeline::PhaseBreakdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseProfile {
    /// Nanoseconds spent in the scatter phase (edge traversal + request generation).
    pub scatter_ns: u64,
    /// Nanoseconds spent in the apply phase (functional apply + apply traffic).
    pub apply_ns: u64,
    /// Nanoseconds spent rebuilding the frontier and per-iteration scratch.
    pub frontier_ns: u64,
}

impl PhaseProfile {
    /// Total profiled nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.scatter_ns + self.apply_ns + self.frontier_ns
    }
}

/// Publishes one completed run's phase timings into the calling thread's
/// accumulator (drained by [`take_thread_phase_profile`]).
///
/// Called once per run by [`pipeline::run`](crate::pipeline::run), on whichever
/// thread executed the run.
pub fn record_run_profile(profile: PhaseProfile) {
    THREAD_SCATTER_NS.with(|c| c.set(c.get() + profile.scatter_ns));
    THREAD_APPLY_NS.with(|c| c.set(c.get() + profile.apply_ns));
    THREAD_FRONTIER_NS.with(|c| c.set(c.get() + profile.frontier_ns));
}

/// Takes (returns and zeroes) the calling thread's phase-timing accumulator.
///
/// The per-run attribution seam: a scheduler that executes a unit on this thread
/// calls this immediately before the unit (discarding leftovers from earlier
/// work) and immediately after (capturing exactly that unit's phase timings),
/// immune to concurrent runs on other threads.
pub fn take_thread_phase_profile() -> PhaseProfile {
    PhaseProfile {
        scatter_ns: THREAD_SCATTER_NS.with(|c| c.replace(0)),
        apply_ns: THREAD_APPLY_NS.with(|c| c.replace(0)),
        frontier_ns: THREAD_FRONTIER_NS.with(|c| c.replace(0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_feeds_the_thread_accumulator() {
        let _ = take_thread_phase_profile();
        record_run_profile(PhaseProfile {
            scatter_ns: 5,
            apply_ns: 7,
            frontier_ns: 9,
        });
        let local = take_thread_phase_profile();
        assert_eq!(
            local,
            PhaseProfile {
                scatter_ns: 5,
                apply_ns: 7,
                frontier_ns: 9
            }
        );
        assert_eq!(local.total_ns(), 21);
        assert_eq!(take_thread_phase_profile(), PhaseProfile::default());
    }

    #[test]
    fn thread_profiles_attribute_per_run_even_across_threads() {
        // Two "runs" on different threads each see exactly their own timings.
        let t1 = std::thread::spawn(|| {
            let _ = take_thread_phase_profile();
            record_run_profile(PhaseProfile {
                scatter_ns: 100,
                ..PhaseProfile::default()
            });
            take_thread_phase_profile()
        });
        let t2 = std::thread::spawn(|| {
            let _ = take_thread_phase_profile();
            record_run_profile(PhaseProfile {
                apply_ns: 200,
                ..PhaseProfile::default()
            });
            take_thread_phase_profile()
        });
        let p1 = t1.join().unwrap();
        let p2 = t2.join().unwrap();
        assert_eq!(p1.scatter_ns, 100);
        assert_eq!(p1.apply_ns, 0);
        assert_eq!(p2.apply_ns, 200);
        assert_eq!(p2.scatter_ns, 0);
        // A second take on a fresh thread is empty: takes drain.
        let drained = std::thread::spawn(take_thread_phase_profile)
            .join()
            .unwrap();
        assert_eq!(drained, PhaseProfile::default());
    }
}
