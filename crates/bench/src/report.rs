//! Plain-text table rendering for experiment reports.

use std::fmt;
use std::time::Instant;

/// A simple aligned text table: header row plus data rows.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Table {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a data row (must match the header width).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "\n== {} ==", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (w, cell) in widths.iter().zip(cells) {
                write!(f, " {cell:>w$} |", w = w)?;
            }
            writeln!(f)
        };
        line(f, &self.header)?;
        let total: usize = widths.iter().map(|w| w + 3).sum::<usize>() + 1;
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Format a float with sensible precision for error percentages.
pub fn pct(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Format a duration in seconds with millisecond precision.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Wall-clock time of one operation in µs: the median and quartiles of
/// `k` timed runs after one discarded warm-up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Timing {
    /// Run `f` once untimed, then time `k` more runs.
    pub fn measure(k: usize, mut f: impl FnMut()) -> Timing {
        f();
        let mut us: Vec<f64> = (0..k)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        Timing::of(&mut us)
    }

    /// Quartiles of `us`, interpolated linearly between order statistics.
    pub fn of(us: &mut [f64]) -> Timing {
        assert!(!us.is_empty(), "no timed runs");
        us.sort_by(f64::total_cmp);
        let at = |p: f64| {
            let pos = p * (us.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            us[lo] + (us[hi] - us[lo]) * (pos - lo as f64)
        };
        Timing {
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
        }
    }

    /// Whether the median prints as `0`: a cell that carries no reading.
    pub fn unreadable(&self) -> bool {
        self.median.round() == 0.0
    }
}

/// `median [q1–q3]`, whole µs.
impl fmt::Display for Timing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0} [{:.0}–{:.0}]", self.median, self.q1, self.q3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["long-name".into(), "2.5".into()]);
        let s = t.to_string();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-name"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(123.4), "123");
        assert_eq!(pct(12.345), "12.35");
        assert_eq!(pct(0.1234), "0.1234");
        assert_eq!(secs(std::time::Duration::from_millis(1500)), "1.500");
    }

    #[test]
    fn timing_quartiles() {
        let t = Timing::of(&mut [50.0, 10.0, 40.0, 20.0, 30.0]);
        assert_eq!((t.q1, t.median, t.q3), (20.0, 30.0, 40.0));
        assert_eq!(t.to_string(), "30 [20–40]");
        let even = Timing::of(&mut [4.0, 1.0, 3.0, 2.0]);
        assert_eq!((even.q1, even.median, even.q3), (1.75, 2.5, 3.25));
        assert!(!t.unreadable());
        assert!(Timing::of(&mut [0.2, 0.4, 0.3]).unreadable());
        assert!(Timing::measure(3, || {}).median >= 0.0);
    }
}
