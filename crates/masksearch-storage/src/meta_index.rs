//! Secondary metadata indexes over the catalog.
//!
//! A metadata index maps one metadata column value (`model_id = 1`) to the
//! set of mask ids carrying that value, so a metadata-equality predicate can
//! probe a posting list instead of scanning every catalog record. The
//! posting lists are the catalog's own secondary maps — they are maintained
//! inside every commit already — so an index here is only a *named
//! definition*. A store that keeps definitions across restarts writes each
//! as a small checksummed file ([`definition_bytes`]).

use crate::catalog::Catalog;
use crate::codec::{checksum64, Reader, Writer};
use crate::error::{StorageError, StorageResult};
use masksearch_core::{ImageId, Label, MaskId, MaskType, ModelId};
use std::collections::BTreeMap;
use std::sync::RwLock;

/// Magic bytes identifying a metadata index definition file.
pub const META_INDEX_MAGIC: [u8; 4] = *b"MSKI";
/// Metadata index file format version. Version 1 files followed the name
/// with the column's posting lists and carried no checksum; they are still
/// read (the postings are skipped unread).
pub const META_INDEX_FORMAT_VERSION: u16 = 2;

/// A metadata column that can carry a secondary index.
///
/// `true_label` is deliberately absent: the catalog keeps no posting map for
/// it, so an index there would be a scan in disguise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetaColumn {
    /// `image_id` — the sharding / join key.
    ImageId,
    /// `model_id` — which model produced the mask.
    ModelId,
    /// `mask_type` — saliency map, segmentation, etc.
    MaskType,
    /// `predicted_label` — the model's predicted class for the image.
    PredictedLabel,
}

impl MetaColumn {
    /// Every indexable column.
    pub const ALL: [MetaColumn; 4] = [
        MetaColumn::ImageId,
        MetaColumn::ModelId,
        MetaColumn::MaskType,
        MetaColumn::PredictedLabel,
    ];

    /// The SQL column name.
    pub fn name(self) -> &'static str {
        match self {
            MetaColumn::ImageId => "image_id",
            MetaColumn::ModelId => "model_id",
            MetaColumn::MaskType => "mask_type",
            MetaColumn::PredictedLabel => "predicted_label",
        }
    }

    /// Parses a SQL column name (case-insensitive).
    pub fn parse(name: &str) -> Option<Self> {
        MetaColumn::ALL
            .into_iter()
            .find(|c| c.name().eq_ignore_ascii_case(name))
    }

    /// Stable on-disk code.
    pub fn to_code(self) -> u16 {
        match self {
            MetaColumn::ImageId => 1,
            MetaColumn::ModelId => 2,
            MetaColumn::MaskType => 3,
            MetaColumn::PredictedLabel => 4,
        }
    }

    /// Inverse of [`MetaColumn::to_code`].
    pub fn from_code(code: u16) -> Option<Self> {
        MetaColumn::ALL.into_iter().find(|c| c.to_code() == code)
    }

    /// Posting list for `value`, sorted ascending, straight from the
    /// catalog's secondary maps.
    pub fn probe(self, catalog: &Catalog, value: u64) -> Vec<MaskId> {
        match self {
            MetaColumn::ImageId => catalog.masks_of_image(ImageId::new(value)),
            MetaColumn::ModelId => catalog.masks_of_model(ModelId::new(value)),
            MetaColumn::MaskType => match u16::try_from(value) {
                Ok(code) => catalog.masks_of_type(MaskType::from_code(code)),
                Err(_) => Vec::new(),
            },
            MetaColumn::PredictedLabel => catalog.masks_with_predicted_label(Label::new(value)),
        }
    }

    /// Posting-list length for `value` without cloning or sorting the list.
    pub fn estimate(self, catalog: &Catalog, value: u64) -> usize {
        match self {
            MetaColumn::ImageId => catalog.count_of_image(ImageId::new(value)),
            MetaColumn::ModelId => catalog.count_of_model(ModelId::new(value)),
            MetaColumn::MaskType => match u16::try_from(value) {
                Ok(code) => catalog.count_of_type(MaskType::from_code(code)),
                Err(_) => 0,
            },
            MetaColumn::PredictedLabel => catalog.count_with_predicted_label(Label::new(value)),
        }
    }
}

/// A named index definition: one index covers exactly one metadata column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaIndexDef {
    /// The index name given at `CREATE INDEX`.
    pub name: String,
    /// The indexed column.
    pub column: MetaColumn,
}

/// The set of index definitions live on a store, shared between the query
/// session (which probes) and the durable store (which persists them).
#[derive(Debug, Default)]
pub struct MetaIndexRegistry {
    /// name → column; at most one definition per column.
    defs: RwLock<BTreeMap<String, MetaColumn>>,
}

impl MetaIndexRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an index. Returns `true` if a new definition was created,
    /// `false` if `if_not_exists` swallowed a duplicate.
    pub fn create(
        &self,
        name: &str,
        column: MetaColumn,
        if_not_exists: bool,
    ) -> Result<bool, String> {
        let mut defs = self.defs.write().unwrap();
        if let Some(existing) = defs.get(name) {
            if if_not_exists {
                return Ok(false);
            }
            return Err(format!(
                "index `{name}` already exists (on {})",
                existing.name()
            ));
        }
        if let Some((other, _)) = defs.iter().find(|(_, c)| **c == column) {
            return Err(format!(
                "column {} is already indexed by `{other}`",
                column.name()
            ));
        }
        defs.insert(name.to_string(), column);
        Ok(true)
    }

    /// Drops an index by name. Returns `true` if a definition was removed,
    /// `false` if `if_exists` swallowed a miss.
    pub fn drop_index(&self, name: &str, if_exists: bool) -> Result<bool, String> {
        let mut defs = self.defs.write().unwrap();
        if defs.remove(name).is_some() {
            Ok(true)
        } else if if_exists {
            Ok(false)
        } else {
            Err(format!("index `{name}` does not exist"))
        }
    }

    /// The definition covering `column`, if any.
    pub fn on(&self, column: MetaColumn) -> Option<MetaIndexDef> {
        self.defs
            .read()
            .unwrap()
            .iter()
            .find(|(_, c)| **c == column)
            .map(|(name, c)| MetaIndexDef {
                name: name.clone(),
                column: *c,
            })
    }

    /// Looks up a definition by name.
    pub fn by_name(&self, name: &str) -> Option<MetaIndexDef> {
        self.defs.read().unwrap().get(name).map(|c| MetaIndexDef {
            name: name.to_string(),
            column: *c,
        })
    }

    /// All definitions, ordered by name.
    pub fn list(&self) -> Vec<MetaIndexDef> {
        self.defs
            .read()
            .unwrap()
            .iter()
            .map(|(name, c)| MetaIndexDef {
                name: name.clone(),
                column: *c,
            })
            .collect()
    }

    /// Number of definitions.
    pub fn len(&self) -> usize {
        self.defs.read().unwrap().len()
    }

    /// Returns `true` if no index is defined.
    pub fn is_empty(&self) -> bool {
        self.defs.read().unwrap().is_empty()
    }
}

/// Serialises a definition file: magic, version, column code, name, and a
/// [`checksum64`] over all of them.
pub fn definition_bytes(def: &MetaIndexDef) -> Vec<u8> {
    let mut w = Writer::new();
    w.write_bytes(&META_INDEX_MAGIC);
    w.write_u16(META_INDEX_FORMAT_VERSION);
    w.write_u16(def.column.to_code());
    w.write_string(&def.name);
    let mut bytes = w.into_bytes();
    let checksum = checksum64(&[&bytes]);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

/// Decodes a definition file written by [`definition_bytes`], or by a
/// version 1 build (whose posting lists, after the name, are not read).
pub fn decode_definition(bytes: &[u8]) -> StorageResult<MetaIndexDef> {
    let mut r = Reader::new(bytes, "metadata index");
    let magic = r.read_magic()?;
    if magic != META_INDEX_MAGIC {
        return Err(StorageError::BadMagic {
            path: "<metadata index>".to_string(),
            found: magic,
        });
    }
    let version = r.read_u16()?;
    if !(1..=META_INDEX_FORMAT_VERSION).contains(&version) {
        return Err(StorageError::UnsupportedVersion {
            found: version,
            supported: META_INDEX_FORMAT_VERSION,
        });
    }
    let code = r.read_u16()?;
    let name = r.read_string()?;
    if version == META_INDEX_FORMAT_VERSION {
        let header = &bytes[..r.position()];
        if r.read_u64()? != checksum64(&[header]) || r.remaining() != 0 {
            return Err(StorageError::corrupt("metadata index checksum mismatch"));
        }
    }
    let column = MetaColumn::from_code(code)
        .ok_or_else(|| StorageError::corrupt(format!("unknown metadata column code {code}")))?;
    if name.is_empty() {
        return Err(StorageError::corrupt("metadata index name is empty"));
    }
    Ok(MetaIndexDef { name, column })
}

#[cfg(test)]
mod tests {
    use super::*;
    use masksearch_core::{MaskRecord, Roi};

    fn record(mask_id: u64, image_id: u64, model_id: u64, pred: Option<u64>) -> MaskRecord {
        let mut b = MaskRecord::builder(MaskId::new(mask_id))
            .image_id(ImageId::new(image_id))
            .model_id(ModelId::new(model_id))
            .mask_type(MaskType::SaliencyMap)
            .shape(8, 8)
            .object_box(Roi::new(1, 1, 4, 4).unwrap());
        if let Some(p) = pred {
            b = b.predicted_label(Label::new(p));
        }
        b.build()
    }

    fn sample_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.insert(record(1, 100, 1, Some(7)));
        c.insert(record(2, 100, 2, Some(7)));
        c.insert(record(3, 101, 1, None));
        c
    }

    #[test]
    fn column_names_round_trip() {
        for column in MetaColumn::ALL {
            assert_eq!(MetaColumn::parse(column.name()), Some(column));
            assert_eq!(MetaColumn::from_code(column.to_code()), Some(column));
        }
        assert_eq!(MetaColumn::parse("MODEL_ID"), Some(MetaColumn::ModelId));
        assert!(MetaColumn::parse("true_label").is_none());
        assert!(MetaColumn::parse("pixels").is_none());
    }

    #[test]
    fn probe_and_estimate_agree_with_the_catalog() {
        let c = sample_catalog();
        assert_eq!(
            MetaColumn::ModelId.probe(&c, 1),
            vec![MaskId::new(1), MaskId::new(3)]
        );
        assert_eq!(MetaColumn::ModelId.estimate(&c, 1), 2);
        assert_eq!(
            MetaColumn::PredictedLabel.probe(&c, 7),
            vec![MaskId::new(1), MaskId::new(2)]
        );
        assert_eq!(MetaColumn::PredictedLabel.estimate(&c, 9), 0);
        assert!(MetaColumn::MaskType.probe(&c, u64::MAX).is_empty());
    }

    #[test]
    fn registry_enforces_one_index_per_column() {
        let reg = MetaIndexRegistry::new();
        assert!(reg.create("by_model", MetaColumn::ModelId, false).unwrap());
        // Duplicate name: swallowed with IF NOT EXISTS, loud without.
        assert!(!reg.create("by_model", MetaColumn::ModelId, true).unwrap());
        assert!(reg.create("by_model", MetaColumn::ModelId, false).is_err());
        // Second index on the same column is always an error.
        assert!(reg.create("by_model2", MetaColumn::ModelId, false).is_err());
        assert_eq!(reg.on(MetaColumn::ModelId).unwrap().name, "by_model");
        assert!(reg.on(MetaColumn::ImageId).is_none());
        assert_eq!(reg.by_name("by_model").unwrap().column, MetaColumn::ModelId);
        assert_eq!(reg.list().len(), 1);
        assert!(reg.drop_index("nope", true).is_ok());
        assert!(reg.drop_index("nope", false).is_err());
        assert!(reg.drop_index("by_model", false).unwrap());
        assert!(reg.is_empty());
    }

    fn by_model() -> MetaIndexDef {
        MetaIndexDef {
            name: "by_model".to_string(),
            column: MetaColumn::ModelId,
        }
    }

    /// A version 1 file: the header, then `(key, ids)` posting lists.
    fn v1_bytes(def: &MetaIndexDef, postings: &[(u64, &[u64])]) -> Vec<u8> {
        let mut w = Writer::new();
        w.write_bytes(&META_INDEX_MAGIC);
        w.write_u16(1);
        w.write_u16(def.column.to_code());
        w.write_string(&def.name);
        w.write_u64(postings.len() as u64);
        for (key, ids) in postings {
            w.write_u64(*key);
            w.write_u64(ids.len() as u64);
            for id in *ids {
                w.write_u64(*id);
            }
        }
        w.into_bytes()
    }

    /// The definition file round-trips, and a version 1 file yields its
    /// definition without its postings being read.
    #[test]
    fn snapshot_round_trips() {
        let def = MetaIndexDef {
            name: "by_pred".to_string(),
            column: MetaColumn::PredictedLabel,
        };
        let bytes = definition_bytes(&def);
        assert_eq!(bytes.len(), 4 + 2 + 2 + 4 + def.name.len() + 8);
        assert_eq!(decode_definition(&bytes).unwrap(), def);
        let v1 = v1_bytes(&def, &[(7, &[1, 2]), (9, &[3])]);
        assert_eq!(decode_definition(&v1).unwrap(), def);
        // Postings that would not even parse are not looked at.
        let mut torn = v1_bytes(&def, &[(7, &[1, 2])]);
        torn.truncate(torn.len() - 3);
        assert_eq!(decode_definition(&torn).unwrap(), def);
    }

    #[test]
    fn corrupt_snapshots_are_rejected() {
        let def = by_model();
        let mut bytes = definition_bytes(&def);
        bytes[0] = b'X';
        assert!(matches!(
            decode_definition(&bytes),
            Err(StorageError::BadMagic { .. })
        ));
        let mut newer = definition_bytes(&def);
        newer[4] = 3;
        assert!(matches!(
            decode_definition(&newer),
            Err(StorageError::UnsupportedVersion { found: 3, .. })
        ));
        let mut trailing = definition_bytes(&def);
        trailing.push(0);
        assert!(decode_definition(&trailing).is_err());
        let unnamed = MetaIndexDef {
            name: String::new(),
            column: MetaColumn::ModelId,
        };
        assert!(decode_definition(&definition_bytes(&unnamed)).is_err());
    }

    /// Every truncation and every single-byte change of a definition file
    /// either decodes to the original definition or is rejected: none
    /// panics, and none yields another name or column.
    #[test]
    fn every_truncation_and_byte_flip_keeps_the_definition_or_fails() {
        let def = by_model();
        let bytes = definition_bytes(&def);
        for len in 0..bytes.len() {
            assert!(decode_definition(&bytes[..len]).is_err(), "prefix {len}");
        }
        for at in 0..bytes.len() {
            for flip in 1..=255u8 {
                let mut damaged = bytes.clone();
                damaged[at] ^= flip;
                if let Ok(decoded) = decode_definition(&damaged) {
                    assert_eq!(decoded, def, "byte {at} ^ {flip:#04x}");
                }
            }
        }
    }
}
