//! One measuring process's part of an untraced run, as it travels from
//! the child process to the parent on standard output: one line per
//! field, the field's name and then its values, separated by spaces.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{Summary, Tally};

/// What one process measured, with the checks it made.
#[derive(Debug, Clone, PartialEq)]
pub struct Share {
    /// Wall and calibrated time of each set-up repetition, s.
    pub setup_s: Vec<f64>,
    pub setup_cal_s: Vec<f64>,
    /// Wall and calibrated time of each untraced op, ns.
    pub op_ns: Vec<f64>,
    pub op_cal_ns: Vec<f64>,
    /// Work the untraced ops did (configs, jobs or queries).
    pub work: f64,
    /// Every calibration kernel timing, ns.
    pub kernel_ns: Vec<f64>,
    /// Modelled ticks of the leading digest cycle.
    pub ticks: Summary,
    pub ticks_mean: f64,
    pub peak_rss_mb: f64,
    pub tally: Tally,
    pub correct: bool,
    pub teeth_ok: bool,
    pub digest: String,
    pub known: String,
    pub cycle: u64,
}

fn put(out: &mut String, key: &str, values: impl IntoIterator<Item = impl std::fmt::Display>) {
    out.push_str(key);
    for v in values {
        let _ = write!(out, " {v}");
    }
    out.push('\n');
}

impl Share {
    /// The share as text, one `name value...` line per field.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        put(&mut out, "setup_s", &self.setup_s);
        put(&mut out, "setup_cal_s", &self.setup_cal_s);
        put(&mut out, "op_ns", &self.op_ns);
        put(&mut out, "op_cal_ns", &self.op_cal_ns);
        put(&mut out, "work", [self.work]);
        put(&mut out, "kernel_ns", &self.kernel_ns);
        let t = &self.ticks;
        put(
            &mut out,
            "ticks",
            [t.p50, t.tail, t.tail_permille as f64, t.n as f64],
        );
        put(&mut out, "ticks_mean", [self.ticks_mean]);
        put(&mut out, "peak_rss_mb", [self.peak_rss_mb]);
        put(&mut out, "tally", [self.tally.attempted, self.tally.failed]);
        put(&mut out, "correct", [self.correct]);
        put(&mut out, "teeth_ok", [self.teeth_ok]);
        put(&mut out, "digest", [&self.digest]);
        put(&mut out, "known", [&self.known]);
        put(&mut out, "cycle", [self.cycle]);
        out
    }

    /// Reads a share back from [`Share::lines`] output; lines of other
    /// shapes are ignored.
    pub fn parse(text: &str) -> Result<Share, String> {
        let fields: BTreeMap<&str, Vec<&str>> = text
            .lines()
            .filter_map(|l| {
                let mut words = l.split_whitespace();
                words.next().map(|k| (k, words.collect()))
            })
            .collect();
        let words = |key: &str| fields.get(key).ok_or_else(|| format!("no `{key}` line"));
        let nums = |key: &str| -> Result<Vec<f64>, String> {
            words(key)?
                .iter()
                .map(|w| w.parse::<f64>().map_err(|_| format!("`{key}`: {w:?}")))
                .collect()
        };
        let num = |key: &str, i: usize| -> Result<f64, String> {
            nums(key)?
                .get(i)
                .copied()
                .ok_or_else(|| format!("`{key}` is too short"))
        };
        let word = |key: &str| -> Result<String, String> {
            words(key)?
                .first()
                .map(|w| w.to_string())
                .ok_or_else(|| format!("`{key}` is empty"))
        };
        Ok(Share {
            setup_s: nums("setup_s")?,
            setup_cal_s: nums("setup_cal_s")?,
            op_ns: nums("op_ns")?,
            op_cal_ns: nums("op_cal_ns")?,
            work: num("work", 0)?,
            kernel_ns: nums("kernel_ns")?,
            ticks: Summary {
                p50: num("ticks", 0)?,
                tail: num("ticks", 1)?,
                tail_permille: num("ticks", 2)? as u64,
                n: num("ticks", 3)? as usize,
            },
            ticks_mean: num("ticks_mean", 0)?,
            peak_rss_mb: num("peak_rss_mb", 0)?,
            tally: Tally {
                attempted: num("tally", 0)? as u64,
                failed: num("tally", 1)? as u64,
            },
            correct: word("correct")? == "true",
            teeth_ok: word("teeth_ok")? == "true",
            digest: word("digest")?,
            known: word("known")?,
            cycle: num("cycle", 0)? as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_share_survives_the_trip_between_processes() {
        let share = Share {
            setup_s: vec![0.041, 0.0399],
            setup_cal_s: vec![0.0375, 0.036_125],
            op_ns: vec![13_002_117.0, 12_998_004.0],
            op_cal_ns: vec![10_443_003.25, 9_999_871.5],
            work: 240.0,
            kernel_ns: vec![249_017.0],
            ticks: Summary {
                p50: 21.0,
                tail: 41.0,
                tail_permille: 990,
                n: 48_000,
            },
            ticks_mean: 26.309_375,
            peak_rss_mb: 13.6,
            tally: Tally {
                attempted: 120,
                failed: 0,
            },
            correct: true,
            teeth_ok: true,
            digest: "bef48e1d40fd1ad3".to_string(),
            known: "b94fba47dff0e8b6".to_string(),
            cycle: 400,
        };
        assert_eq!(Share::parse(&share.lines()), Ok(share.clone()));
        let empty = Share {
            op_ns: Vec::new(),
            op_cal_ns: Vec::new(),
            ..share
        };
        assert_eq!(Share::parse(&empty.lines()), Ok(empty));
        assert!(Share::parse("setup_s 0.1\n").is_err());
        assert!(Share::parse("").is_err());
    }
}
