//! A deterministic multi-server FCFS queue simulator.
//!
//! Jobs (profiling requests) arrive at known instants and require known
//! service times; `k` identical servers process them first-come-first-served.
//! The simulator reports, per job, when service started and finished, from
//! which the farm model derives waiting and reaction times.  The
//! implementation is a simple event sweep over the arrival-ordered jobs —
//! with FCFS and identical servers, each job simply takes the earliest-free
//! server.

/// One profiling request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Arrival instant, in seconds.
    pub arrival_s: f64,
    /// Service requirement, in seconds.
    pub service_s: f64,
}

/// Completion record for one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct JobOutcome {
    /// The job as submitted.
    pub job: Job,
    /// When a server started working on it.
    pub start_s: f64,
    /// When the analysis finished.
    pub finish_s: f64,
}

impl JobOutcome {
    /// Time spent waiting for a free server.
    pub(crate) fn waiting_s(&self) -> f64 {
        self.start_s - self.job.arrival_s
    }

    /// Reaction time: waiting plus service (arrival to completion).
    pub(crate) fn reaction_s(&self) -> f64 {
        self.finish_s - self.job.arrival_s
    }
}

/// Aggregate result of a queue simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueResult {
    /// Per-job outcomes, in arrival order.
    pub(crate) outcomes: Vec<JobOutcome>,
}

impl QueueResult {
    /// Mean reaction time in seconds (zero for an empty run).
    pub fn mean_reaction_s(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().map(|o| o.reaction_s()).sum::<f64>() / self.outcomes.len() as f64
    }

    /// Mean waiting time in seconds.
    pub(crate) fn mean_waiting_s(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().map(|o| o.waiting_s()).sum::<f64>() / self.outcomes.len() as f64
    }

    /// Total busy time summed over all servers (the accumulated profiling
    /// time of Fig. 12).
    pub fn total_busy_s(&self) -> f64 {
        self.outcomes.iter().map(|o| o.job.service_s).sum()
    }

    /// Offered utilization: total service demand divided by the capacity the
    /// servers offer over the simulated horizon.  Values at or above 1 mean
    /// the system is unstable (the queue grows without bound).
    pub(crate) fn utilization(&self, servers: usize, horizon_s: f64) -> f64 {
        if horizon_s <= 0.0 || servers == 0 {
            return f64::INFINITY;
        }
        self.total_busy_s() / (servers as f64 * horizon_s)
    }
}

/// Simulates `k` identical FCFS servers over the given jobs.
///
/// Jobs must be sorted by arrival time.
///
/// # Panics
/// Panics if `servers` is zero, a job has negative service time, or the jobs
/// are not sorted by arrival.
pub fn simulate_queue(jobs: &[Job], servers: usize) -> QueueResult {
    assert!(servers > 0, "need at least one server");
    let mut free_at = vec![0.0_f64; servers];
    let mut outcomes = Vec::with_capacity(jobs.len());
    let mut last_arrival = f64::NEG_INFINITY;
    for job in jobs {
        assert!(job.service_s >= 0.0, "negative service time");
        assert!(
            job.arrival_s >= last_arrival,
            "jobs must be sorted by arrival time"
        );
        last_arrival = job.arrival_s;
        // Pick the server that frees up first (the lowest index among
        // equals).
        let server = (1..servers).fold(0, |best, s| {
            if free_at[s].total_cmp(&free_at[best]).is_lt() {
                s
            } else {
                best
            }
        });
        let earliest = free_at[server];
        let start = job.arrival_s.max(earliest);
        let finish = start + job.service_s;
        free_at[server] = finish;
        outcomes.push(JobOutcome {
            job: *job,
            start_s: start,
            finish_s: finish,
        });
    }
    QueueResult { outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(arrival: f64, service: f64) -> Job {
        Job {
            arrival_s: arrival,
            service_s: service,
        }
    }

    #[test]
    fn single_server_serializes_jobs() {
        let jobs = vec![job(0.0, 10.0), job(1.0, 10.0), job(2.0, 10.0)];
        let result = simulate_queue(&jobs, 1);
        assert_eq!(result.outcomes[0].waiting_s(), 0.0);
        assert!((result.outcomes[1].waiting_s() - 9.0).abs() < 1e-12);
        assert!((result.outcomes[2].waiting_s() - 18.0).abs() < 1e-12);
        assert!((result.total_busy_s() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn enough_servers_remove_all_waiting() {
        let jobs = vec![job(0.0, 10.0), job(1.0, 10.0), job(2.0, 10.0)];
        let result = simulate_queue(&jobs, 3);
        assert_eq!(result.mean_waiting_s(), 0.0);
        assert!((result.mean_reaction_s() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn more_servers_never_hurt_reaction_time() {
        let jobs: Vec<Job> = (0..50).map(|i| job(i as f64 * 30.0, 200.0)).collect();
        let two = simulate_queue(&jobs, 2);
        let four = simulate_queue(&jobs, 4);
        let eight = simulate_queue(&jobs, 8);
        assert!(four.mean_reaction_s() <= two.mean_reaction_s());
        assert!(eight.mean_reaction_s() <= four.mean_reaction_s());
    }

    #[test]
    fn utilization_flags_overload() {
        let jobs: Vec<Job> = (0..100).map(|i| job(i as f64, 10.0)).collect();
        let result = simulate_queue(&jobs, 1);
        // 1000 s of work offered over a ~100 s horizon on one server.
        assert!(result.utilization(1, 100.0) > 1.0);
        assert!(result.utilization(20, 100.0) < 1.0);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let result = simulate_queue(&[], 4);
        assert_eq!(result.mean_reaction_s(), 0.0);
        assert_eq!(result.total_busy_s(), 0.0);
    }

    #[test]
    #[should_panic(expected = "sorted by arrival")]
    fn unsorted_jobs_rejected() {
        simulate_queue(&[job(5.0, 1.0), job(1.0, 1.0)], 1);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        simulate_queue(&[job(0.0, 1.0)], 0);
    }
}
