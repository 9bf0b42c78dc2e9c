//! Correctness checks run on every run. A failed check fails the run; it
//! is never turned into a number.

use gridsec_core::{BatchSchedule, Grid, Job};
use gridsec_serve::{Placed, ServeMetrics};

/// The served schedule passes [`BatchSchedule::validate`] against the
/// accepted jobs: each accepted job placed exactly once, nothing else
/// placed, every site real and wide enough.
pub fn schedule_valid(served: &[Placed], accepted: &[Job], grid: &Grid) -> Result<(), String> {
    BatchSchedule::from_pairs(served.iter().map(|p| (p.job, p.site)))
        .validate(accepted, grid)
        .map_err(|e| format!("served schedule invalid: {e}"))
}

/// The zero-lost-jobs ledger: every job the client saw accepted is
/// counted as submitted and as scheduled by the daemon, nothing is left
/// pending after the drain, and the schedule holds exactly that many
/// placements.
pub fn ledger(accepted: usize, metrics: &ServeMetrics, served: &[Placed]) -> Result<(), String> {
    let counts = [
        ("jobs_submitted", metrics.jobs_submitted),
        ("jobs_scheduled", metrics.jobs_scheduled),
        ("placements", served.len()),
    ];
    for (name, n) in counts {
        if n != accepted {
            return Err(format!("ledger: {accepted} jobs accepted but {name} = {n}"));
        }
    }
    if metrics.pending != 0 {
        return Err(format!(
            "ledger: {} jobs still pending after drain",
            metrics.pending
        ));
    }
    Ok(())
}

/// The daemon's schedule is bit-identical to the in-process session's:
/// same placements in the same commit order, start and end times equal
/// to the bit.
pub fn bit_identical(served: &[Placed], reference: &[Placed]) -> Result<(), String> {
    if served.len() != reference.len() {
        return Err(format!(
            "daemon placed {} jobs, the in-process session {}",
            served.len(),
            reference.len()
        ));
    }
    let same = |a: &Placed, b: &Placed| {
        a.job == b.job
            && a.site == b.site
            && a.width == b.width
            && a.start.seconds().to_bits() == b.start.seconds().to_bits()
            && a.end.seconds().to_bits() == b.end.seconds().to_bits()
    };
    match served.iter().zip(reference).position(|(a, b)| !same(a, b)) {
        None => Ok(()),
        Some(i) => Err(format!(
            "schedules diverge at commit {i}: daemon {:?}, in-process {:?}",
            served[i], reference[i]
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_core::{JobId, Site, SiteId, Time};

    fn placed(job: u64, site: usize, start: f64) -> Placed {
        Placed {
            job: JobId(job),
            site: SiteId(site),
            width: 1,
            start: Time::new(start),
            end: Time::new(start + 1.0),
        }
    }

    fn setup() -> (Grid, Vec<Job>, Vec<Placed>) {
        let grid = Grid::new(vec![
            Site::builder(0).nodes(1).build().unwrap(),
            Site::builder(1).nodes(1).build().unwrap(),
        ])
        .unwrap();
        let jobs = (0..3).map(|i| Job::builder(i).build().unwrap()).collect();
        let served = vec![placed(0, 0, 0.0), placed(1, 1, 0.0), placed(2, 0, 1.0)];
        (grid, jobs, served)
    }

    fn metrics(n: usize, pending: usize) -> ServeMetrics {
        let mut m = ServeMetrics::merge(&[]);
        m.jobs_submitted = n;
        m.jobs_scheduled = n;
        m.pending = pending;
        m
    }

    #[test]
    fn a_sound_run_passes_every_check() {
        let (grid, jobs, served) = setup();
        schedule_valid(&served, &jobs, &grid).unwrap();
        ledger(3, &metrics(3, 0), &served).unwrap();
        bit_identical(&served, &served.clone()).unwrap();
    }

    #[test]
    fn lost_duplicated_or_foreign_jobs_fail() {
        let (grid, jobs, served) = setup();
        // Lost: a job accepted but never placed.
        assert!(schedule_valid(&served[..2], &jobs, &grid).is_err());
        assert!(ledger(3, &metrics(3, 0), &served[..2]).is_err());
        // Duplicated: one job placed twice, another never.
        let mut dup = served.clone();
        dup[2] = placed(1, 0, 1.0);
        assert!(schedule_valid(&dup, &jobs, &grid).is_err());
        // Placed on a site the grid does not have.
        let mut foreign = served.clone();
        foreign[0].site = SiteId(9);
        assert!(schedule_valid(&foreign, &jobs, &grid).is_err());
        // Left pending, or counted differently by the daemon.
        assert!(ledger(3, &metrics(3, 1), &served).is_err());
        assert!(ledger(3, &metrics(2, 0), &served).is_err());
    }

    #[test]
    fn a_one_ulp_difference_breaks_bit_identity() {
        let (_, _, served) = setup();
        let mut other = served.clone();
        let end = other[1].end.seconds();
        other[1].end = Time::new(f64::from_bits(end.to_bits() + 1));
        assert!(bit_identical(&served, &other).is_err());
        assert!(bit_identical(&served, &served[..2]).is_err());
        let mut swapped = served.clone();
        swapped.swap(0, 1);
        assert!(bit_identical(&served, &swapped).is_err());
    }
}
