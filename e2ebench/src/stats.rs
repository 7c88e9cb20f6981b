//! Order statistics and the in-memory span recorder of the traced pass.

use std::fmt::Write as _;
use std::time::Instant;

/// The `q`-quantile of `xs` by nearest rank (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Per-window completion rates: `stamps` are completion times in
/// seconds since the window start, `span` the measured length. The
/// median window rate shrugs off a stall that a whole-run mean would
/// absorb.
pub fn window_rates(stamps: &[f64], span: f64, windows: usize) -> Vec<f64> {
    let width = span / windows as f64;
    let mut counts = vec![0u64; windows];
    for &t in stamps {
        let w = ((t / width) as usize).min(windows - 1);
        counts[w] += 1;
    }
    counts.iter().map(|&c| c as f64 / width).collect()
}

/// `(steal, total)` CPU ticks so far of all CPUs, from `/proc/stat`.
/// Steal is time the hypervisor gave this VM's CPUs to another guest;
/// the run reports its share as a note on the host's load.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat
        .lines()
        .find(|l| l.split_whitespace().next() == Some("cpu"))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// One timed region of the benchmark's own code.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

/// Spans kept in memory while a pass runs and written out when it
/// ends. With recording off, [`Spans::time`] only runs the closure.
pub struct Spans {
    t0: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            t0: Instant::now(),
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested under the span that
    /// is open, if any.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx as usize].end_ns = self.t0.elapsed().as_nanos() as u64;
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Self times (own duration minus direct children) in nanoseconds
    /// of every span named `name`.
    pub fn self_ns(&self, name: &str) -> Vec<f64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.end_ns - s.start_ns).saturating_sub(child[i]) as f64)
            .collect()
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 64);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new(true);
        spans.time("outer", |s| {
            s.time("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            })
        });
        let outer = spans.self_ns("outer")[0];
        let inner = spans.self_ns("inner")[0];
        assert!(inner >= 5e6 && outer < inner, "outer {outer} inner {inner}");
        assert_eq!(spans.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn window_rates_split_evenly() {
        let stamps: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let rates = window_rates(&stamps, 1.0, 4);
        assert_eq!(rates, vec![100.0; 4]);
    }
}
