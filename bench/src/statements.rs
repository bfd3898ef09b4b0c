//! Seeded statement streams.
//!
//! Every statement is SQL text in the `masksearch-sql` dialect, so the
//! program under test only ever sees generated inputs. Filter thresholds are
//! not guessed: set-up observes the exact `CP` value of every template on
//! every generated mask ([`Calibration`]) and places each threshold at the
//! quantile that gives the drawn selectivity, which makes the cold workload's
//! "1–10% of candidates" regime a property of the inputs.
//!
//! The seed decides geometry, thresholds, labels and ids; the *structure* of a
//! pool does not vary with it. Every pool cycles through the same pixel
//! ranges, region types, model clauses and selectivity targets in the same
//! proportions, so two seeds give different statements of the same expected
//! cost and a metric's spread across seeds measures the program, not the
//! luck of the draw.

use masksearch_core::{cp, Mask, MaskRecord, PixelRange, Roi};
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Lower ends of the pixel ranges statements use. Half sit on a 16-bin CHI
/// boundary and half do not, so both planner routes see traffic.
const RANGE_LOWS: [f32; 8] = [0.5, 0.6, 0.625, 0.7, 0.75, 0.8, 0.85, 0.875];
/// `LIMIT` of every ranked statement.
pub const TOP_K: usize = 25;
/// `CP` templates calibrated per workload.
pub const TEMPLATES: usize = 16;
/// Ids in a `mask_id IN (…)` point selection.
const ID_LIST: usize = 8;

/// What a statement asks for; used to label latencies and pick oracles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `WHERE CP(mask, (x0, y0, x1, y1), range) > T`
    RoiFilter,
    /// `WHERE CP(mask, object, range) > T`
    ObjectFilter,
    /// `ORDER BY CP(...) DESC LIMIT 25`
    TopK,
    /// `GROUP BY image_id ORDER BY AVG(CP(...)) DESC LIMIT 25`
    GroupedAvg,
    /// `CP(INTERSECT(mask > t), object, range)` grouped top-25
    Intersect,
    /// `… AND predicted_label = L AND model_id = m`
    PointLabel,
    /// `… AND mask_id IN (…)`
    PointIds,
}

/// One generated statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Statement {
    /// What it asks for.
    pub kind: Kind,
    /// The SQL text sent to the program.
    pub sql: String,
    /// For calibrated filters: matching share of the candidates, as counted
    /// on the generated masks themselves.
    pub selectivity: Option<f64>,
}

/// Where a `CP` template looks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Region {
    /// A constant rectangle.
    Rect(Roi),
    /// The mask's own object box.
    Object,
}

/// `CP(mask, region, (lo, 1.0))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpTemplate {
    /// Region of interest.
    pub region: Region,
    /// Lower end of the pixel range (the upper end is 1.0).
    pub lo: f32,
}

impl CpTemplate {
    /// The SQL spelling of the term.
    pub fn sql(&self) -> String {
        let region = match self.region {
            Region::Rect(r) => format!("({}, {}, {}, {})", r.x0(), r.y0(), r.x1(), r.y1()),
            Region::Object => "object".to_string(),
        };
        format!("CP(mask, {region}, ({}, 1.0))", self.lo)
    }

    /// The exact value of the term on one mask.
    fn eval(&self, record: &MaskRecord, mask: &Mask) -> u64 {
        let roi = match self.region {
            Region::Rect(r) => r,
            Region::Object => record.object_box.unwrap_or_else(|| mask.full_roi()),
        };
        let range = PixelRange::new(self.lo, 1.0).expect("lo < 1");
        cp(mask, &roi, &range)
    }
}

/// A rectangle of three to five eighths of the side each way, anywhere.
fn random_rect(rng: &mut impl Rng, side: u32) -> Roi {
    let w = rng.gen_range(side * 3 / 8..=side * 5 / 8).max(1);
    let h = rng.gen_range(side * 3 / 8..=side * 5 / 8).max(1);
    let x0 = rng.gen_range(0..=side - w);
    let y0 = rng.gen_range(0..=side - h);
    Roi::new(x0, y0, x0 + w, y0 + h).expect("non-degenerate rectangle")
}

/// Selectivity targets the calibrated filters cycle through.
const SELECTIVITY_TARGETS: [f64; 8] = [0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09];

/// The range lows in a seeded order; cycling through it uses each equally.
fn shuffled_lows(rng: &mut impl Rng) -> [f32; 8] {
    let mut lows = RANGE_LOWS;
    lows.shuffle(rng);
    lows
}

/// Exact template values of every generated mask, collected while set-up
/// generates them.
#[derive(Debug, Clone)]
pub struct Calibration {
    templates: Vec<CpTemplate>,
    /// `values[t][i]`: template `t` on the `i`-th observed mask.
    values: Vec<Vec<u64>>,
    /// Model id of the `i`-th observed mask.
    models: Vec<u64>,
}

impl Calibration {
    /// Draws the workload's templates: even slots are rectangles, odd slots
    /// object boxes, and each kind uses every range low exactly once.
    pub fn new(seed: u64, side: u32) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7465_6d70_6c61_7465);
        let lows = [shuffled_lows(&mut rng), shuffled_lows(&mut rng)];
        let templates: Vec<CpTemplate> = (0..TEMPLATES)
            .map(|i| CpTemplate {
                region: if i % 2 == 0 {
                    Region::Rect(random_rect(&mut rng, side))
                } else {
                    Region::Object
                },
                lo: lows[i % 2][(i / 2) % lows[0].len()],
            })
            .collect();
        Self {
            values: vec![Vec::new(); templates.len()],
            templates,
            models: Vec::new(),
        }
    }

    /// Records one generated mask.
    pub fn observe(&mut self, record: &MaskRecord, mask: &Mask) {
        for (template, values) in self.templates.iter().zip(&mut self.values) {
            values.push(template.eval(record, mask));
        }
        self.models.push(record.model_id.raw());
    }

    /// The threshold `T` for `template > T` whose matching share of the
    /// candidates (all masks, or one model's) is the largest not above
    /// `target`, and that share.
    fn threshold(&self, template: usize, model: Option<u64>, target: f64) -> (u64, f64) {
        let mut values: Vec<u64> = self.values[template]
            .iter()
            .zip(&self.models)
            .filter(|(_, m)| model.is_none_or(|want| **m == want))
            .map(|(v, _)| *v)
            .collect();
        values.sort_unstable_by(|a, b| b.cmp(a));
        let n = values.len().max(1);
        let wanted = ((target * n as f64) as usize).min(n - 1);
        let t = values.get(wanted).copied().unwrap_or(0);
        let matching = values.iter().take_while(|v| **v > t).count();
        (t, matching as f64 / n as f64)
    }
}

/// Generates the statements of one workload.
pub struct Generator<'a> {
    rng: ChaCha8Rng,
    calibration: &'a Calibration,
    side: u32,
    masks: u64,
    classes: u64,
    every_statement_names_a_model: bool,
    lows: [f32; 8],
    /// Statements generated so far, per purpose: the cycles below index by
    /// these, so proportions hold whatever the seed.
    filters: [usize; 2],
    selections: usize,
    terms: usize,
}

impl<'a> Generator<'a> {
    /// A generator over a calibrated dataset of `masks` masks.
    pub fn new(
        seed: u64,
        calibration: &'a Calibration,
        side: u32,
        masks: u64,
        classes: u64,
    ) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7374_6d74);
        let lows = shuffled_lows(&mut rng);
        Self {
            rng,
            calibration,
            side,
            masks,
            classes,
            every_statement_names_a_model: false,
            lows,
            filters: [0; 2],
            selections: 0,
            terms: 0,
        }
    }

    /// Makes every scan statement select one of the dataset's models, so a
    /// writer working under another model id never changes its candidates.
    pub fn every_statement_names_a_model(mut self) -> Self {
        self.every_statement_names_a_model = true;
        self
    }

    /// The model a statement selects: every statement's when all must name
    /// one, otherwise every third's; models alternate.
    fn next_model(&mut self) -> Option<u64> {
        let n = self.selections;
        self.selections += 1;
        if self.every_statement_names_a_model {
            Some(1 + n as u64 % crate::dataset::MODELS)
        } else if n % 3 == 2 {
            Some(1 + (n / 3) as u64 % crate::dataset::MODELS)
        } else {
            None
        }
    }

    /// The next `CP` term of an uncalibrated statement: range lows cycle,
    /// `object` decides the region.
    fn next_term(&mut self, object: bool) -> CpTemplate {
        let lo = self.lows[self.terms % self.lows.len()];
        self.terms += 1;
        CpTemplate {
            region: if object {
                Region::Object
            } else {
                Region::Rect(random_rect(&mut self.rng, self.side))
            },
            lo,
        }
    }

    fn filter(&mut self, object: bool) -> Statement {
        // Template slots alternate rectangle / object (see `Calibration::new`);
        // each kind cycles through its slots and the selectivity targets.
        let n = self.filters[usize::from(object)];
        self.filters[usize::from(object)] += 1;
        let slot = (n % (TEMPLATES / 2)) * 2 + usize::from(object);
        // Offset the target cycle per lap so slot and target do not pair up.
        let target = SELECTIVITY_TARGETS[(n + n / (TEMPLATES / 2)) % SELECTIVITY_TARGETS.len()];
        let model = self.next_model();
        let (t, selectivity) = self.calibration.threshold(slot, model, target);
        let clause = model.map_or(String::new(), |m| format!(" AND model_id = {m}"));
        Statement {
            kind: if object {
                Kind::ObjectFilter
            } else {
                Kind::RoiFilter
            },
            sql: format!(
                "SELECT mask_id FROM masks WHERE {} > {t}{clause}",
                self.calibration.templates[slot].sql()
            ),
            selectivity: Some(selectivity),
        }
    }

    fn where_model(&mut self) -> String {
        self.next_model()
            .map_or(String::new(), |m| format!(" WHERE model_id = {m}"))
    }

    /// Top-25 by a `CP` term; regions alternate rectangle / object box.
    fn top_k(&mut self) -> Statement {
        let object = self.terms % 2 == 1;
        let term = self.next_term(object).sql();
        let filter = self.where_model();
        Statement {
            kind: Kind::TopK,
            sql: format!(
                "SELECT mask_id, {term} AS c FROM masks{filter} ORDER BY c DESC LIMIT {TOP_K}"
            ),
            selectivity: None,
        }
    }

    fn grouped_avg(&mut self) -> Statement {
        let term = self.next_term(true).sql();
        let filter = self.where_model();
        Statement {
            kind: Kind::GroupedAvg,
            sql: format!(
                "SELECT image_id, AVG({term}) AS s FROM masks{filter} GROUP BY image_id \
                 ORDER BY s DESC LIMIT {TOP_K}"
            ),
            selectivity: None,
        }
    }

    fn intersect(&mut self, n: usize) -> Statement {
        let lo = [0.8f32, 0.85, 0.875][n % 3];
        let filter = if self.every_statement_names_a_model {
            self.where_model()
        } else {
            String::new()
        };
        Statement {
            kind: Kind::Intersect,
            sql: format!(
                "SELECT image_id, CP(INTERSECT(mask > 0.8), object, ({lo}, 1.0)) AS s \
                 FROM masks{filter} GROUP BY image_id ORDER BY s DESC LIMIT {TOP_K}"
            ),
            selectivity: None,
        }
    }

    /// `blocks` blocks of eight scan statements — three ROI filters, two
    /// object-box filters, two top-25 by `CP`, one grouped `AVG(CP)` top-25 —
    /// plus, when `intersect` is set, one `INTERSECT` group query per nine
    /// others (10% of the mix). The shares are uneven on purpose: with equal
    /// shares the median latency sits on the gap between two shapes' modes
    /// and flaps from run to run.
    pub fn scan_mix(&mut self, blocks: usize, intersect: bool) -> Vec<Statement> {
        let mut out = Vec::new();
        for _ in 0..blocks {
            for _ in 0..3 {
                out.push(self.filter(false));
            }
            for _ in 0..2 {
                out.push(self.filter(true));
            }
            for _ in 0..2 {
                out.push(self.top_k());
            }
            out.push(self.grouped_avg());
        }
        if intersect {
            for n in 0..out.len().div_ceil(9) {
                out.push(self.intersect(n));
            }
        }
        out
    }

    /// `count` short statements: three indexed
    /// `predicted_label = L AND model_id = m` selections to one small
    /// `mask_id IN (…)` list (uneven on purpose: with equal shares the median
    /// would sit on the gap between the two shapes' latencies and flap), each
    /// under an object-box `CP` filter at the template's median.
    pub fn point_mix(&mut self, count: usize) -> Vec<Statement> {
        (0..count)
            .map(|i| {
                let slot = (i % (TEMPLATES / 2)) * 2 + 1;
                let (t, _) = self.calibration.threshold(slot, None, 0.5);
                let term = self.calibration.templates[slot].sql();
                if i % 4 != 3 {
                    let label = self.rng.gen_range(0..self.classes);
                    let model = 1 + i as u64 % crate::dataset::MODELS;
                    Statement {
                        kind: Kind::PointLabel,
                        sql: format!(
                            "SELECT mask_id FROM masks WHERE {term} > {t} \
                             AND predicted_label = {label} AND model_id = {model}"
                        ),
                        selectivity: None,
                    }
                } else {
                    let ids: Vec<String> = (0..ID_LIST)
                        .map(|_| self.rng.gen_range(0..self.masks).to_string())
                        .collect();
                    Statement {
                        kind: Kind::PointIds,
                        sql: format!(
                            "SELECT mask_id FROM masks WHERE {term} > {t} AND mask_id IN ({})",
                            ids.join(", ")
                        ),
                        selectivity: None,
                    }
                }
            })
            .collect()
    }

    /// `per_kind` statements of each coordinator route: broadcast filter,
    /// ranked top-25, grouped top-25.
    pub fn fanout_mix(&mut self, per_kind: usize) -> Vec<Statement> {
        let mut out = Vec::new();
        for i in 0..per_kind {
            out.push(self.filter(i % 2 == 1));
            out.push(self.top_k());
            out.push(self.grouped_avg());
        }
        out
    }
}

/// A client's order over a statement pool: every statement once per lap, in
/// an order of the client's own.
pub fn client_order(seed: u64, client: u64, pool: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..pool).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(crate::dataset::mix(seed ^ 0x006f_7264_6572, client));
    order.shuffle(&mut rng);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetSpec, CLASSES};

    fn calibrated(seed: u64) -> (DatasetSpec, Calibration) {
        let spec = DatasetSpec {
            images: 60,
            side: 32,
            seed,
        };
        let mut calibration = Calibration::new(seed, spec.side);
        for record in spec.records() {
            calibration.observe(&record, &spec.mask(&record));
        }
        (spec, calibration)
    }

    fn streams(seed: u64) -> Vec<Statement> {
        let (spec, calibration) = calibrated(seed);
        let mut g = Generator::new(seed, &calibration, spec.side, spec.masks(), CLASSES);
        let mut all = g.scan_mix(2, true);
        all.extend(g.point_mix(16));
        all.extend(g.fanout_mix(3));
        all
    }

    #[test]
    fn same_seed_same_streams_other_seed_other_streams() {
        assert_eq!(streams(11), streams(11));
        assert_ne!(streams(11), streams(12));
        assert_eq!(client_order(5, 0, 40), client_order(5, 0, 40));
        assert_ne!(client_order(5, 0, 40), client_order(5, 1, 40));
        let mut lap = client_order(5, 1, 40);
        lap.sort_unstable();
        assert_eq!(lap, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn every_statement_compiles_and_mixes_hold_their_shares() {
        let all = streams(3);
        for s in &all {
            masksearch_sql::compile(&s.sql).unwrap_or_else(|e| panic!("{}: {e}", s.sql));
        }
        let count = |k: Kind| all.iter().filter(|s| s.kind == k).count();
        // scan_mix(2, true): 16 + ceil(16 / 9) intersects; fanout adds 3 each.
        assert_eq!(count(Kind::Intersect), 2);
        assert_eq!(
            count(Kind::RoiFilter) + count(Kind::ObjectFilter),
            6 + 4 + 3
        );
        assert_eq!(count(Kind::TopK), 4 + 3);
        assert_eq!(count(Kind::GroupedAvg), 2 + 3);
        assert_eq!(count(Kind::PointLabel), 12);
        assert_eq!(count(Kind::PointIds), 4);
    }

    #[test]
    fn a_model_can_be_named_by_every_scan_statement() {
        let (spec, calibration) = calibrated(5);
        let mut g = Generator::new(5, &calibration, spec.side, spec.masks(), CLASSES)
            .every_statement_names_a_model();
        for s in g.scan_mix(1, true) {
            let query = masksearch_sql::compile(&s.sql).unwrap();
            assert!(query.selection.model_id.is_some(), "{}", s.sql);
        }
    }

    #[test]
    fn calibrated_selectivity_is_exact_and_never_above_its_target() {
        let (spec, calibration) = calibrated(7);
        assert_eq!(calibration.models.len() as u64, spec.masks());
        for slot in 0..TEMPLATES {
            for model in [None, Some(1), Some(2)] {
                let (t, share) = calibration.threshold(slot, model, 0.09);
                assert!(share <= 0.09 + 1e-12, "slot {slot}: {share}");
                // Recount from the masks themselves.
                let records = spec.records();
                let candidates: Vec<_> = records
                    .iter()
                    .filter(|r| model.is_none_or(|m| r.model_id.raw() == m))
                    .collect();
                let matching = candidates
                    .iter()
                    .filter(|r| calibration.templates[slot].eval(r, &spec.mask(r)) > t)
                    .count();
                assert_eq!(share, matching as f64 / candidates.len() as f64);
            }
        }
    }
}
