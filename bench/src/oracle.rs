//! The correctness oracle: `masksearch_baselines::BruteForce`, fed for every
//! checked statement from one shared pass over the stores.

use masksearch_baselines::BruteForce;
use masksearch_core::MaskId;
use masksearch_query::{Query, ResultRow};
use masksearch_service::protocol::encode_row;
use masksearch_storage::{Catalog, MaskStore};
use std::sync::Arc;

/// A store and the mask ids to read from it (one per shard on a cluster).
pub struct Source {
    /// Where the pixels are read.
    pub store: Arc<dyn MaskStore>,
    /// The masks this store holds.
    pub ids: Vec<MaskId>,
}

/// Exact rows of every query, each mask loaded once and shown to every
/// evaluator that targets it. `catalog` must describe every source's masks.
pub fn brute_force(
    sources: &[Source],
    catalog: &Catalog,
    queries: &[Query],
) -> Result<Vec<Vec<ResultRow>>, String> {
    let mut evaluators: Vec<BruteForce<'_>> = queries
        .iter()
        .map(|query| BruteForce::new(catalog, query))
        .collect();
    for source in sources {
        for &id in &source.ids {
            if !evaluators.iter().any(|e| e.is_candidate(id)) {
                continue;
            }
            let mask = source
                .store
                .get(id)
                .map_err(|e| format!("oracle load of mask {}: {e}", id.raw()))?;
            for evaluator in &mut evaluators {
                evaluator
                    .consume(id, &mask)
                    .map_err(|e| format!("oracle evaluation: {e}"))?;
            }
        }
    }
    evaluators
        .into_iter()
        .map(|e| e.finish().map_err(|e| format!("oracle finish: {e}")))
        .collect()
}

/// FNV-1a over the wire encoding of the rows: equal digests mean the client
/// saw byte-identical rows.
pub fn digest_rows(rows: &[ResultRow]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for row in rows {
        for byte in encode_row(row).bytes().chain(std::iter::once(b'\n')) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Describes the first difference between two row lists, for the log.
pub fn first_difference(got: &[ResultRow], want: &[ResultRow]) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!("{} rows, oracle has {}", got.len(), want.len()));
    }
    got.iter()
        .zip(want)
        .position(|(g, w)| encode_row(g) != encode_row(w))
        .map(|i| {
            format!(
                "row {i}: got `{}`, oracle `{}`",
                encode_row(&got[i]),
                encode_row(&want[i])
            )
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetSpec;
    use crate::setup;

    #[test]
    fn shared_pass_matches_a_session_on_every_shape() {
        let scratch = setup::test_dir("oracle");
        let spec = DatasetSpec {
            images: 24,
            side: 32,
            seed: 2,
        };
        let records = spec.records();
        let (db, _) = setup::build_database(scratch.path(), &spec, &records, 2, |_, _| {}).unwrap();
        let catalog = db.catalog();
        let queries: Vec<Query> = [
            "SELECT mask_id FROM masks WHERE CP(mask, (4, 4, 28, 28), (0.5, 1.0)) > 40",
            "SELECT mask_id, CP(mask, object, (0.6, 1.0)) AS c FROM masks ORDER BY c DESC LIMIT 5",
            "SELECT image_id, AVG(CP(mask, object, (0.5, 1.0))) AS s FROM masks \
             GROUP BY image_id ORDER BY s DESC LIMIT 5",
        ]
        .iter()
        .map(|sql| masksearch_sql::compile(sql).unwrap())
        .collect();
        let sources = [Source {
            store: db.mask_store(),
            ids: catalog.mask_ids(),
        }];
        let expected = brute_force(&sources, &catalog, &queries).unwrap();
        let node = crate::stack::Node::serve(db, spec.side, 0).unwrap();
        for (query, want) in queries.iter().zip(&expected) {
            let got = node.session().execute(query).unwrap().rows;
            assert_eq!(first_difference(&got, want), None);
            assert_eq!(digest_rows(&got), digest_rows(want));
        }
        assert_ne!(digest_rows(&expected[0]), digest_rows(&expected[1]));
        node.close().unwrap();
    }

    #[test]
    fn differences_are_described() {
        let a = [ResultRow::mask(MaskId::new(1), Some(2.0))];
        let b = [ResultRow::mask(MaskId::new(1), Some(3.0))];
        assert!(first_difference(&a, &b).unwrap().contains("row 0"));
        assert!(first_difference(&a, &[]).unwrap().contains("rows"));
        assert_eq!(first_difference(&a, &a), None);
    }
}
