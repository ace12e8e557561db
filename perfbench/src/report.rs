//! Metrics, the ledger tables and the result line.

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: errors, rejections, sheds, timeouts and
    /// wrong outputs.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Add a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Count `n` operations of which `bad` failed.
    pub fn count(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Failed operations over attempted ones.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Print every metric as `name = value unit`.
    pub fn print(&self) {
        for m in &self.metrics {
            println!("{:<28} = {:>14.6} {}", m.name, m.value, m.unit);
        }
        println!(
            "{:<28} = {:>14.6} fraction ({} of {} operations)",
            "failed_frac",
            self.failed_frac(),
            self.failed,
            self.attempted
        );
    }

    /// The result line: one JSON object. `correct` needs every output
    /// checked good and every metric finite.
    pub fn json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0 && finite,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One ledger row: a layer's rate, its self time (time beyond the
/// layer below for the same work) and its rate over the layer below.
pub struct Row {
    /// Layer, with how it was measured.
    pub layer: String,
    /// Rate of the layer.
    pub rate: f64,
    /// Unit of `rate`.
    pub unit: &'static str,
    /// Milliseconds per operation.
    pub ms: f64,
    /// Metric names this row reports, and the end-to-end metric and
    /// workload they should move.
    pub moves: String,
}

/// Print a ledger table: rows bottom layer first.
pub fn ledger(title: &str, rows: &[Row]) {
    println!("\n== ledger: {title}");
    println!(
        "{:<44} {:>12} {:<8} {:>11} {:>11} {:>9}   moves",
        "layer", "rate", "unit", "ms/op", "self ms/op", "vs below"
    );
    for (i, r) in rows.iter().enumerate() {
        let (own, ratio) = match i.checked_sub(1).map(|j| &rows[j]) {
            Some(b) => (
                format!("{:>11.3}", r.ms - b.ms),
                format!("{:>9.3}", r.rate / b.rate),
            ),
            None => (format!("{:>11.3}", r.ms), format!("{:>9}", "-")),
        };
        println!(
            "{:<44} {:>12.4} {:<8} {:>11.3} {own} {ratio}   {}",
            r.layer, r.rate, r.unit, r.ms, r.moves
        );
    }
}
