//! Tabular experiment output: aligned text for the terminal, CSV for
//! post-processing, and shape assertions for tests.

/// One experiment's results: x = message size (bytes), one column per
/// series, values in the experiment's unit (µs or MB/s).
#[derive(Clone, Debug)]
pub struct Table {
    pub title: String,
    pub unit: String,
    pub series: Vec<String>,
    pub rows: Vec<(usize, Vec<f64>)>,
}

impl Table {
    pub fn new(title: &str, unit: &str, series: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            unit: unit.to_string(),
            series: series.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn push(&mut self, x: usize, values: Vec<f64>) {
        assert_eq!(values.len(), self.series.len());
        self.rows.push((x, values));
    }

    /// The column values of one series.
    pub fn column(&self, series: &str) -> Vec<f64> {
        let i = self
            .series
            .iter()
            .position(|s| s == series)
            .unwrap_or_else(|| panic!("no series {series}"));
        self.rows.iter().map(|(_, v)| v[i]).collect()
    }

    /// Value at `(size, series)`.
    pub fn at(&self, x: usize, series: &str) -> f64 {
        let i = self.series.iter().position(|s| s == series).unwrap();
        self.rows
            .iter()
            .find(|(r, _)| *r == x)
            .map(|(_, v)| v[i])
            .unwrap_or_else(|| panic!("no row {x}"))
    }

    /// The table as aligned text for the terminal.
    pub fn render(&self) -> String {
        let mut out = format!("\n## {}  ({})\n{:>10}", self.title, self.unit, "bytes");
        for s in &self.series {
            out.push_str(&format!("{s:>18}"));
        }
        out.push('\n');
        for (x, vals) in &self.rows {
            out.push_str(&format!("{x:>10}"));
            for v in vals {
                out.push_str(&format!("{v:>18.3}"));
            }
            out.push('\n');
        }
        out
    }

    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str("bytes");
        for s in &self.series {
            out.push(',');
            out.push_str(s);
        }
        out.push('\n');
        for (x, vals) in &self.rows {
            out.push_str(&x.to_string());
            for v in vals {
                out.push_str(&format!(",{v:.4}"));
            }
            out.push('\n');
        }
        out
    }

    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("| bytes | {} |\n", self.series.join(" | ")));
        out.push_str(&format!("|---{}|\n", "|---".repeat(self.series.len())));
        for (x, vals) in &self.rows {
            out.push_str(&format!("| {x} "));
            for v in vals {
                out.push_str(&format!("| {v:.2} "));
            }
            out.push_str("|\n");
        }
        out
    }
}

/// Message-size sweeps used by the figures.
pub fn sizes_small() -> Vec<usize> {
    vec![0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
}

pub fn sizes_large() -> Vec<usize> {
    vec![
        2048,
        4096,
        8192,
        16 << 10,
        32 << 10,
        64 << 10,
        128 << 10,
        256 << 10,
        512 << 10,
        1 << 20,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new("test", "us", &["a", "b"]);
        t.push(0, vec![1.0, 2.0]);
        t.push(8, vec![3.0, 4.0]);
        assert_eq!(t.column("b"), vec![2.0, 4.0]);
        assert_eq!(t.at(8, "a"), 3.0);
        let csv = t.to_csv();
        assert!(csv.starts_with("bytes,a,b\n0,1.0000,2.0000\n"));
        assert!(t.to_markdown().contains("| 8 | 3.00 | 4.00 |"));
    }

    #[test]
    #[should_panic(expected = "no series")]
    fn unknown_series_panics() {
        Table::new("t", "us", &["a"]).column("zzz");
    }
}
