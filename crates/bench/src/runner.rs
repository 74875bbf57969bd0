//! The experiment runner: one scenario matrix and one table renderer.
//!
//! Every experiment of the evaluation is a grid of independent
//! simulations over one base [`SimConfig`]: labelled config transforms
//! (the [`Variant`]s) × allocators × seeds. [`Scenario::run`] executes
//! the whole grid on all cores through [`custody_simcore::par_map`] and
//! keeps each cell's [`RunMetrics`] in grid order, so what a table shows
//! never depends on which thread ran which cell.
//!
//! A [`Table`] is data: a title plus columns, each a header and a
//! closure over one [`Row`] of the results. A row is one variant, or
//! `span` consecutive variants when a table compares arms side by side
//! (detection on/off, scrubbing on/off); a table may also draw its first
//! variant as the calm reference the other rows compare against.

use custody_core::AllocatorKind;
use custody_sim::report::render_table;
use custody_sim::{RunMetrics, SimConfig, Simulation};
use custody_simcore::stats::Summary;

/// A labelled config transform: one point on a scenario's variant axis.
pub struct Variant {
    keys: Vec<String>,
    apply: Box<dyn Fn(SimConfig) -> SimConfig>,
}

impl Variant {
    /// A variant labelled by `keys` (the cells [`Table::key`] columns
    /// draw, e.g. `["25", "sort"]`) that derives its configuration from
    /// the scenario's base with `apply`.
    pub fn new<S: Into<String>>(
        keys: impl IntoIterator<Item = S>,
        apply: impl Fn(SimConfig) -> SimConfig + 'static,
    ) -> Self {
        Variant {
            keys: keys.into_iter().map(Into::into).collect(),
            apply: Box::new(apply),
        }
    }

    /// The base configuration itself, e.g. a calm or oracle reference.
    pub fn base(label: &str) -> Self {
        Variant::new([label], |cfg| cfg)
    }
}

/// A grid of simulations: variants × allocators × seeds over one base.
pub struct Scenario {
    /// The configuration every variant starts from.
    pub base: SimConfig,
    /// The variant axis, in the order tables draw it.
    pub variants: Vec<Variant>,
    /// Cluster managers each variant runs under.
    pub allocators: Vec<AllocatorKind>,
    /// Seeds each (variant, allocator) cell is replicated over.
    pub seeds: Vec<u64>,
}

impl Scenario {
    /// `variants` of `base` under `allocators`, run on the base's seed.
    pub fn new(
        base: SimConfig,
        allocators: &[AllocatorKind],
        variants: impl IntoIterator<Item = Variant>,
    ) -> Self {
        Scenario {
            seeds: vec![base.seed],
            variants: variants.into_iter().collect(),
            allocators: allocators.to_vec(),
            base,
        }
    }

    /// Every cell's configuration in grid order: variant-major, then
    /// allocator, then seed.
    fn configs(&self) -> Vec<SimConfig> {
        let mut out = Vec::new();
        for variant in &self.variants {
            let cfg = (variant.apply)(self.base.clone());
            for &allocator in &self.allocators {
                for &seed in &self.seeds {
                    let mut cell = cfg.clone().with_allocator(allocator);
                    cell.seed = seed;
                    out.push(cell);
                }
            }
        }
        out
    }

    /// Runs every cell in parallel; results come back in grid order.
    pub fn run(self) -> Outcome {
        let runs =
            custody_simcore::par_map(&self.configs(), |cfg| Simulation::run(cfg).cluster_metrics);
        Outcome {
            scenario: self,
            runs,
        }
    }
}

/// A scenario together with the metrics of every cell it ran.
pub struct Outcome {
    scenario: Scenario,
    runs: Vec<RunMetrics>,
}

impl Outcome {
    /// The per-seed runs of one (variant, allocator) cell, indexed as in
    /// the scenario.
    pub fn runs(&self, variant: usize, allocator: usize) -> &[RunMetrics] {
        let seeds = self.scenario.seeds.len();
        let start = (variant * self.scenario.allocators.len() + allocator) * seeds;
        &self.runs[start..start + seeds]
    }
}

/// One drawn table row: `span` consecutive variants (its *arms*) of an
/// outcome, seen from one allocator offset.
#[derive(Clone, Copy)]
pub struct Row<'a> {
    outcome: &'a Outcome,
    first: usize,
    span: usize,
    allocator: usize,
    has_reference: bool,
}

impl<'a> Row<'a> {
    /// Label cell `i` of the row's first variant.
    pub fn key(&self, i: usize) -> &'a str {
        &self.outcome.scenario.variants[self.first].keys[i]
    }

    /// The allocator the row is drawn for (first of the scenario's
    /// allocators unless the table has a row per allocator).
    pub fn allocator(&self) -> AllocatorKind {
        self.outcome.scenario.allocators[self.allocator]
    }

    /// The per-seed runs of one arm under one allocator.
    pub fn runs(&self, arm: usize, allocator: usize) -> &'a [RunMetrics] {
        self.outcome
            .runs(self.first + arm, self.allocator + allocator)
    }

    /// The first seed's run of one arm under one allocator.
    pub fn arm(&self, arm: usize, allocator: usize) -> &'a RunMetrics {
        &self.runs(arm, allocator)[0]
    }

    /// The first seed's run of the row's first arm under one allocator.
    pub fn m(&self, allocator: usize) -> &'a RunMetrics {
        self.arm(0, allocator)
    }

    /// A per-run summary pooled across seeds with [`Summary::merge`].
    pub fn pooled(&self, arm: usize, alloc: usize, f: impl Fn(&RunMetrics) -> Summary) -> Summary {
        let mut pooled = Summary::new();
        for m in self.runs(arm, alloc) {
            pooled.merge(&f(m));
        }
        pooled
    }

    /// A per-run count summed across seeds.
    pub fn total(&self, arm: usize, allocator: usize, f: impl Fn(&RunMetrics) -> usize) -> usize {
        self.runs(arm, allocator).iter().map(f).sum()
    }

    /// The mean of `f` over the row's arms (first seed each).
    pub fn mean_over_arms(&self, allocator: usize, f: impl Fn(&RunMetrics) -> f64) -> f64 {
        (0..self.span)
            .map(|arm| f(self.arm(arm, allocator)))
            .sum::<f64>()
            / self.span as f64
    }

    /// The table's reference row (its first variant).
    ///
    /// # Panics
    /// If the table was not built with [`Table::with_reference`].
    pub fn reference(&self) -> Row<'a> {
        assert!(self.has_reference, "table has no reference row");
        Row {
            first: 0,
            span: 1,
            ..*self
        }
    }
}

type CellFn = Box<dyn Fn(&Row) -> String>;
type RowFilter = Box<dyn Fn(&Row) -> bool>;

/// How a column draws the reference row.
enum OnReference {
    /// A `-` placeholder.
    Dash,
    /// The same closure as every other row.
    Same,
    /// A closure of its own.
    Own(CellFn),
}

struct Column {
    header: &'static str,
    cell: CellFn,
    on_reference: OnReference,
}

/// A table as data: a title plus columns over an [`Outcome`]'s rows.
pub struct Table {
    title: String,
    span: usize,
    per_allocator: bool,
    reference: bool,
    keep: Option<RowFilter>,
    columns: Vec<Column>,
}

impl Table {
    /// An empty table: one row per variant, no reference row.
    pub fn new(title: impl Into<String>) -> Self {
        Table {
            title: title.into(),
            span: 1,
            per_allocator: false,
            reference: false,
            keep: None,
            columns: Vec::new(),
        }
    }

    /// Groups `span` consecutive variants into one row.
    pub fn span(mut self, span: usize) -> Self {
        self.span = span;
        self
    }

    /// Draws one row per (variant, allocator) instead of one per variant.
    pub fn per_allocator(mut self) -> Self {
        self.per_allocator = true;
        self
    }

    /// Draws the first variant alone as a reference row, ahead of the
    /// others; their columns reach it through [`Row::reference`].
    pub fn with_reference(mut self) -> Self {
        self.reference = true;
        self
    }

    /// Draws only the rows `keep` accepts.
    pub fn only(mut self, keep: impl Fn(&Row) -> bool + 'static) -> Self {
        self.keep = Some(Box::new(keep));
        self
    }

    fn push(mut self, header: &'static str, cell: CellFn, on_reference: OnReference) -> Self {
        self.columns.push(Column {
            header,
            cell,
            on_reference,
        });
        self
    }

    /// A column showing label cell `i` of each row, the reference
    /// included.
    pub fn key(self, header: &'static str, i: usize) -> Self {
        self.both(header, move |r| r.key(i).to_string())
    }

    /// A column drawn by `cell`; the reference row shows `-`.
    pub fn col(self, header: &'static str, cell: impl Fn(&Row) -> String + 'static) -> Self {
        self.push(header, Box::new(cell), OnReference::Dash)
    }

    /// A column drawn by `cell` on every row, the reference included.
    pub fn both(self, header: &'static str, cell: impl Fn(&Row) -> String + 'static) -> Self {
        self.push(header, Box::new(cell), OnReference::Same)
    }

    /// A column drawn by `cell`, and by `on_reference` on the reference
    /// row.
    pub fn col_or(
        self,
        header: &'static str,
        cell: impl Fn(&Row) -> String + 'static,
        on_reference: impl Fn(&Row) -> String + 'static,
    ) -> Self {
        self.push(
            header,
            Box::new(cell),
            OnReference::Own(Box::new(on_reference)),
        )
    }

    /// Draws the table: its title line, then an aligned grid.
    pub fn draw(&self, outcome: &Outcome) -> String {
        let variants = outcome.scenario.variants.len();
        let allocators = if self.per_allocator {
            outcome.scenario.allocators.len()
        } else {
            1
        };
        let row = |first, span, allocator| Row {
            outcome,
            first,
            span,
            allocator,
            has_reference: self.reference,
        };
        let mut rows = Vec::new();
        if self.reference {
            let r = row(0, 1, 0);
            rows.push(
                self.columns
                    .iter()
                    .map(|c| match &c.on_reference {
                        OnReference::Dash => "-".to_string(),
                        OnReference::Same => (c.cell)(&r),
                        OnReference::Own(f) => f(&r),
                    })
                    .collect(),
            );
        }
        let start = usize::from(self.reference);
        for first in (start..variants).step_by(self.span) {
            for allocator in 0..allocators {
                let r = row(first, self.span, allocator);
                if self.keep.as_ref().is_none_or(|keep| keep(&r)) {
                    rows.push(self.columns.iter().map(|c| (c.cell)(&r)).collect());
                }
            }
        }
        let headers: Vec<&str> = self.columns.iter().map(|c| c.header).collect();
        format!("{}\n{}", self.title, render_table(&headers, &rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use custody_sim::WorkloadKind;

    fn tiny() -> Scenario {
        Scenario {
            base: crate::paper_config(WorkloadKind::WordCount, 8, 1, 1),
            variants: vec![
                Variant::base("8"),
                Variant::new(["12"], |mut cfg| {
                    cfg.cluster = custody_sim::ClusterSpec::paper(12);
                    cfg
                }),
            ],
            allocators: vec![AllocatorKind::Custody, AllocatorKind::StaticSpread],
            seeds: vec![1, 2],
        }
    }

    #[test]
    fn parallel_run_equals_sequential_in_grid_order() {
        let scenario = tiny();
        let sequential: Vec<RunMetrics> = scenario
            .configs()
            .iter()
            .map(|c| Simulation::run(c).cluster_metrics)
            .collect();
        let outcome = scenario.run();
        assert_eq!(outcome.runs.len(), 8);
        for (p, s) in outcome.runs.iter().zip(&sequential) {
            assert_eq!(p.makespan, s.makespan);
            assert_eq!(p.events_processed, s.events_processed);
            assert_eq!(p.input_locality().samples(), s.input_locality().samples());
        }
        // (variant 1, allocator 1, seed 2) is the last cell.
        let last = &outcome.runs(1, 1)[1];
        assert_eq!(last.makespan, sequential[7].makespan);
    }

    #[test]
    fn table_draws_reference_spans_and_filters() {
        let outcome = tiny().run();
        let table = Table::new("title")
            .with_reference()
            .key("nodes", 0)
            .both("jobs", |r| r.m(0).jobs_completed.to_string())
            .col("pooled", |r| {
                r.total(0, 0, |m| m.jobs_completed).to_string()
            });
        assert_eq!(
            table.draw(&outcome),
            "title\nnodes  jobs  pooled\n-------------------\n\
             8      4     -     \n12     4     8     \n"
        );
        let per_allocator = Table::new("t")
            .per_allocator()
            .only(|r| r.key(0) == "12")
            .col("allocator", |r| r.allocator().name().to_string())
            .draw(&outcome);
        assert_eq!(per_allocator.lines().count(), 5, "{per_allocator}");
        assert!(per_allocator.contains("spark-static"));
    }
}
