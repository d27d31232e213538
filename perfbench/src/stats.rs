//! Order statistics over per-op samples.

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Consecutive windows [`windowed_tail`] splits a run into.  Host stalls
/// come in episodes that slow a run of consecutive ops; with one window an
/// episode alone sets the whole run's tail, with four it moves one window's.
pub const TAIL_WINDOWS: usize = 4;

/// A tail value and the percentile it sits at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value.
    pub value: f64,
    /// Its percentile rank (0–100).
    pub percentile: f64,
    /// Samples strictly after it in sorted order.
    pub beyond: usize,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Median (mean of the middle two for an even count); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond it,
/// or `None` when the run has too few samples for one.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let index = n - 1 - TAIL_BEYOND;
    Some(Tail {
        value: sorted[index],
        percentile: 100.0 * (index + 1) as f64 / n as f64,
        beyond: TAIL_BEYOND,
    })
}

/// The median over [`TAIL_WINDOWS`] consecutive windows of the run of each
/// window's [`tail`].  A run whose windows are too short for a tail of
/// their own gets the whole run's [`tail`].
pub fn windowed_tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n / TAIL_WINDOWS <= TAIL_BEYOND {
        return tail(values);
    }
    let tails: Vec<Tail> = (0..TAIL_WINDOWS)
        .map(|w| {
            let window = &values[w * n / TAIL_WINDOWS..(w + 1) * n / TAIL_WINDOWS];
            tail(window).expect("every window is longer than TAIL_BEYOND")
        })
        .collect();
    let median_of = |field: fn(&Tail) -> f64| median(&tails.iter().map(field).collect::<Vec<_>>());
    Some(Tail {
        value: median_of(|t| t.value),
        percentile: median_of(|t| t.percentile),
        beyond: TAIL_BEYOND,
    })
}

/// The worst sample, reported as the tail of a run too short for
/// [`tail`]: zero samples lie beyond it.
pub fn worst(values: &[f64]) -> Tail {
    Tail {
        value: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        percentile: 100.0,
        beyond: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None, "ten samples leave none for a tail");

        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven).expect("eleven samples give a tail");
        assert_eq!(t.value, 1.0, "exactly ten samples beyond the first");
        assert_eq!(t.beyond, 10);

        let thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&thousand).expect("tail");
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
        let beyond = thousand.iter().filter(|&&v| v > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
    }

    #[test]
    fn windowed_tail_ignores_one_slow_episode() {
        // 400 ops at 1.0 with a stall episode of 30 slow ops in one window.
        let mut run = vec![1.0; 400];
        for slow in &mut run[120..150] {
            *slow = 50.0;
        }
        assert_eq!(tail(&run).expect("tail").value, 50.0);
        let t = windowed_tail(&run).expect("windowed tail");
        assert_eq!(t.value, 1.0, "three calm windows outvote the stalled one");
        assert_eq!(t.beyond, TAIL_BEYOND);
        assert_eq!(t.percentile, 90.0, "each window holds 100 ops");

        // Windows of ten ops or fewer: the whole run's rule applies.
        let short: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(windowed_tail(&short), tail(&short));
        assert_eq!(windowed_tail(&short).expect("tail").value, 30.0);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(windowed_tail(&ten), None);
    }

    #[test]
    fn worst_is_the_maximum() {
        let t = worst(&[3.0, 9.0, 1.0]);
        assert_eq!(t.value, 9.0);
        assert_eq!(t.beyond, 0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
