//! Order statistics and argument checks shared by every workload.

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile in {50, 90, 99, 99.9, 99.99} that still has at
/// least ten samples strictly above its rank, with that percentile's value
/// (nearest-rank). Below 100 samples that is the median.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "tail of no samples");
    let mut best = (50.0, median(xs));
    for p in [90.0, 99.0, 99.9, 99.99] {
        let rank = nearest_rank(p, n);
        if n - rank >= 10 {
            best = (p, s[rank - 1]);
        }
    }
    best
}

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn nearest_rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Interquartile distance as a share of the median, with quartiles taken
/// the way Python's `statistics.quantiles(xs, n=4)` takes them (the
/// "exclusive" method: position `(n + 1) * k / 4`, linearly interpolated).
pub fn quartile_spread(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let q = |k: f64| {
        let pos = (n as f64 + 1.0) * k / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    let med = median(xs);
    if med == 0.0 {
        return 0.0;
    }
    ((q(3.0) - q(1.0)) / med).abs()
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    s
}

/// A metric name: starts with a letter or digit, at most 64 of letters,
/// digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A metric unit: 1 to 16 of letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The workloads this benchmark knows.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    PingPong,
    Coll256,
    Incast,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::PingPong => "pingpong",
            Workload::Coll256 => "coll256",
            Workload::Incast => "incast",
        }
    }
}

/// Parsed command line.
#[derive(Debug, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Parse `--workload W --seed N --seconds S --trace 0|1`. Every flag is
/// required exactly once; anything else is an error.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let slot_taken = match flag.as_str() {
            "--workload" => workload
                .replace(match value {
                    "pingpong" => Workload::PingPong,
                    "coll256" => Workload::Coll256,
                    "incast" => Workload::Incast,
                    _ => return Err(format!("unknown workload {value:?}")),
                })
                .is_some(),
            "--seed" => seed.replace(parse_seed(value)?).is_some(),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("--seconds wants a whole number, got {value:?}"))?;
                if !(1..=3600).contains(&s) {
                    return Err(format!("--seconds {s} outside 1..=3600"));
                }
                seconds.replace(s).is_some()
            }
            "--trace" => trace
                .replace(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                })
                .is_some(),
            _ => return Err(format!("unknown flag {flag:?}")),
        };
        if slot_taken {
            return Err(format!("{flag} given twice"));
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A seed is a decimal `u64`; a leading `+`, sign or blank is refused so
/// that one seed has one spelling.
pub fn parse_seed(s: &str) -> Result<u64, String> {
    if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!(
            "--seed wants a non-negative whole number, got {s:?}"
        ));
    }
    s.parse()
        .map_err(|_| format!("--seed {s:?} does not fit in 64 bits"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 10 samples: no percentile above the median has ten beyond it.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), (50.0, 5.5));
        // 100 samples: p90 is rank 90 with ten beyond; p99 has only one.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred), (90.0, 90.0));
        // 1000 samples: p99 is rank 990 with ten beyond.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand), (99.0, 990.0));
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&xs);
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((quartile_spread(&[1.0, 2.0]) - 1.5 / 1.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[7.0; 10]), 0.0);
    }

    #[test]
    fn metric_names_and_units() {
        for ok in [
            "setup_s",
            "qsim.wake_ns.p256",
            "critpath.fin_wait_ns",
            "9a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_lead", ".x", "has space", "a/b", "ü", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        for ok in ["us", "s", "1/s", "%", "MB", "count"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "a b", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn seed_parsing() {
        assert_eq!(parse_seed("0"), Ok(0));
        assert_eq!(parse_seed("18446744073709551615"), Ok(u64::MAX));
        for bad in ["", "-1", "+1", " 1", "1.0", "0x10", "18446744073709551616"] {
            assert!(parse_seed(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn full_command_line() {
        let a = parse_args(&argv("--workload incast --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::Incast,
                seed: 7,
                seconds: 10,
                trace: true
            }
        );
        for bad in [
            "--workload incast --seed 7 --seconds 10",
            "--workload nope --seed 7 --seconds 10 --trace 0",
            "--workload incast --seed 7 --seed 8 --seconds 10 --trace 0",
            "--workload incast --seed 7 --seconds 0 --trace 0",
            "--workload incast --seed 7 --seconds 10 --trace 2",
            "--workload incast --seed 7 --seconds 10 --trace",
            "--workload incast --seed 7 --seconds 10 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
