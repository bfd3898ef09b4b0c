//! The metadata catalog: every non-pixel column of `MasksDatabaseView`.
//!
//! The catalog is small (tens of bytes per mask) and always memory-resident;
//! it answers the relational part of a query — `model_id = 1`,
//! `mask_type IN (1, 2)`, `GROUP BY image_id`, "masks of images predicted as
//! class 7" — so the expensive mask-loading machinery only ever sees the
//! candidate set it actually needs to consider.

use crate::codec::{Reader, Writer};
use crate::cursor::IdCursor;
use crate::error::{StorageError, StorageResult};
use masksearch_core::{ImageId, Label, MaskId, MaskRecord, MaskType, ModelId, Roi};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;

/// Magic bytes identifying a catalog file.
pub const CATALOG_MAGIC: [u8; 4] = *b"MSKC";
/// Catalog file format version.
pub const CATALOG_FORMAT_VERSION: u16 = 1;

/// In-memory metadata catalog with secondary indexes.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    records: BTreeMap<MaskId, MaskRecord>,
    by_image: HashMap<ImageId, Vec<MaskId>>,
    by_model: HashMap<ModelId, Vec<MaskId>>,
    by_type: HashMap<u16, Vec<MaskId>>,
    by_predicted: HashMap<Label, Vec<MaskId>>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Inserts (or replaces) a record, keeping secondary indexes consistent.
    pub fn insert(&mut self, record: MaskRecord) {
        let mask_id = record.mask_id;
        if let Some(old) = self.records.remove(&mask_id) {
            Self::remove_from(&mut self.by_image, &old.image_id, mask_id);
            Self::remove_from(&mut self.by_model, &old.model_id, mask_id);
            Self::remove_from(&mut self.by_type, &old.mask_type.to_code(), mask_id);
            if let Some(pred) = old.predicted_label {
                Self::remove_from(&mut self.by_predicted, &pred, mask_id);
            }
        }
        self.by_image
            .entry(record.image_id)
            .or_default()
            .push(mask_id);
        self.by_model
            .entry(record.model_id)
            .or_default()
            .push(mask_id);
        self.by_type
            .entry(record.mask_type.to_code())
            .or_default()
            .push(mask_id);
        if let Some(pred) = record.predicted_label {
            self.by_predicted.entry(pred).or_default().push(mask_id);
        }
        self.records.insert(mask_id, record);
    }

    /// Removes a record, keeping secondary indexes consistent. Returns the
    /// removed record, if any.
    pub fn remove(&mut self, mask_id: MaskId) -> Option<MaskRecord> {
        let old = self.records.remove(&mask_id)?;
        Self::remove_from(&mut self.by_image, &old.image_id, mask_id);
        Self::remove_from(&mut self.by_model, &old.model_id, mask_id);
        Self::remove_from(&mut self.by_type, &old.mask_type.to_code(), mask_id);
        if let Some(pred) = old.predicted_label {
            Self::remove_from(&mut self.by_predicted, &pred, mask_id);
        }
        Some(old)
    }

    fn remove_from<K: std::hash::Hash + Eq>(
        index: &mut HashMap<K, Vec<MaskId>>,
        key: &K,
        mask_id: MaskId,
    ) {
        if let Some(ids) = index.get_mut(key) {
            ids.retain(|id| *id != mask_id);
            if ids.is_empty() {
                index.remove(key);
            }
        }
    }

    /// Looks up a record by mask id.
    pub fn get(&self, mask_id: MaskId) -> Option<&MaskRecord> {
        self.records.get(&mask_id)
    }

    /// A cursor over the records for a run of lookups, cheapest when the
    /// ids come ascending (see [`IdCursor`]).
    pub fn cursor(&self) -> IdCursor<'_, MaskRecord> {
        IdCursor::new(&self.records)
    }

    /// All mask ids, ascending.
    pub fn mask_ids(&self) -> Vec<MaskId> {
        self.records.keys().copied().collect()
    }

    /// Iterates over all records in mask-id order.
    pub fn records(&self) -> impl Iterator<Item = &MaskRecord> {
        self.records.values()
    }

    /// All distinct image ids present in the catalog.
    pub fn image_ids(&self) -> Vec<ImageId> {
        let mut ids: Vec<ImageId> = self.by_image.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Mask ids of all masks annotating `image_id`.
    pub fn masks_of_image(&self, image_id: ImageId) -> Vec<MaskId> {
        let mut ids = self.by_image.get(&image_id).cloned().unwrap_or_default();
        ids.sort_unstable();
        ids
    }

    /// Mask ids of all masks produced by `model_id`.
    pub fn masks_of_model(&self, model_id: ModelId) -> Vec<MaskId> {
        let mut ids = self.by_model.get(&model_id).cloned().unwrap_or_default();
        ids.sort_unstable();
        ids
    }

    /// Mask ids of all masks of the given type.
    pub fn masks_of_type(&self, mask_type: MaskType) -> Vec<MaskId> {
        let mut ids = self
            .by_type
            .get(&mask_type.to_code())
            .cloned()
            .unwrap_or_default();
        ids.sort_unstable();
        ids
    }

    /// Mask ids of all masks whose image was predicted as `label`.
    pub fn masks_with_predicted_label(&self, label: Label) -> Vec<MaskId> {
        let mut ids = self.by_predicted.get(&label).cloned().unwrap_or_default();
        ids.sort_unstable();
        ids
    }

    /// Number of masks annotating `image_id`, without cloning the list.
    pub fn count_of_image(&self, image_id: ImageId) -> usize {
        self.by_image.get(&image_id).map_or(0, Vec::len)
    }

    /// Number of masks produced by `model_id`, without cloning the list.
    pub fn count_of_model(&self, model_id: ModelId) -> usize {
        self.by_model.get(&model_id).map_or(0, Vec::len)
    }

    /// Number of masks of the given type, without cloning the list.
    pub fn count_of_type(&self, mask_type: MaskType) -> usize {
        self.by_type.get(&mask_type.to_code()).map_or(0, Vec::len)
    }

    /// Number of masks whose image was predicted as `label`, without cloning
    /// the list.
    pub fn count_with_predicted_label(&self, label: Label) -> usize {
        self.by_predicted.get(&label).map_or(0, Vec::len)
    }

    /// Mask ids whose records satisfy an arbitrary predicate.
    pub fn filter(&self, mut predicate: impl FnMut(&MaskRecord) -> bool) -> Vec<MaskId> {
        self.records
            .values()
            .filter(|r| predicate(r))
            .map(|r| r.mask_id)
            .collect()
    }

    /// Groups the given mask ids by their image id, dropping ids not present
    /// in the catalog. Groups and their members are sorted.
    pub fn group_by_image(&self, mask_ids: &[MaskId]) -> Vec<(ImageId, Vec<MaskId>)> {
        let mut groups: BTreeMap<ImageId, Vec<MaskId>> = BTreeMap::new();
        for &id in mask_ids {
            if let Some(rec) = self.records.get(&id) {
                groups.entry(rec.image_id).or_default().push(id);
            }
        }
        groups
            .into_iter()
            .map(|(image, mut ids)| {
                ids.sort_unstable();
                (image, ids)
            })
            .collect()
    }

    /// Serialises the catalog to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.write_bytes(&CATALOG_MAGIC);
        w.write_u16(CATALOG_FORMAT_VERSION);
        w.write_u16(0);
        w.write_u64(self.records.len() as u64);
        for record in self.records.values() {
            write_record(&mut w, record);
        }
        w.into_bytes()
    }

    /// Deserialises a catalog produced by [`Catalog::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> StorageResult<Self> {
        let mut r = Reader::new(bytes, "catalog");
        let magic = r.read_magic()?;
        if magic != CATALOG_MAGIC {
            return Err(StorageError::BadMagic {
                path: "<catalog>".to_string(),
                found: magic,
            });
        }
        let version = r.read_u16()?;
        if version > CATALOG_FORMAT_VERSION {
            return Err(StorageError::UnsupportedVersion {
                found: version,
                supported: CATALOG_FORMAT_VERSION,
            });
        }
        let _reserved = r.read_u16()?;
        let count = r.read_u64()?;
        let mut catalog = Catalog::new();
        for _ in 0..count {
            catalog.insert(read_record(&mut r)?);
        }
        Ok(catalog)
    }

    /// Writes the catalog to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> StorageResult<()> {
        std::fs::write(path.as_ref(), self.to_bytes())
            .map_err(|e| StorageError::io("writing catalog file", e))
    }

    /// Reads a catalog from a file.
    pub fn load(path: impl AsRef<Path>) -> StorageResult<Self> {
        let bytes = std::fs::read(path.as_ref())
            .map_err(|e| StorageError::io("reading catalog file", e))?;
        Self::from_bytes(&bytes)
    }
}

/// Appends one [`MaskRecord`] in the catalog's fixed binary layout.
///
/// Shared with stores that persist records outside a catalog file (the
/// durable mask database embeds records in its WAL-protected directory so a
/// crash cannot separate a mask's pixels from its metadata).
pub fn write_record(w: &mut Writer, record: &MaskRecord) {
    w.write_u64(record.mask_id.raw());
    w.write_u64(record.image_id.raw());
    w.write_u64(record.model_id.raw());
    w.write_u16(record.mask_type.to_code());
    w.write_u32(record.width);
    w.write_u32(record.height);
    w.write_u8(record.true_label.is_some() as u8);
    w.write_u64(record.true_label.map(|l| l.raw()).unwrap_or(0));
    w.write_u8(record.predicted_label.is_some() as u8);
    w.write_u64(record.predicted_label.map(|l| l.raw()).unwrap_or(0));
    match record.object_box {
        Some(roi) => {
            w.write_u8(1);
            w.write_u32(roi.x0());
            w.write_u32(roi.y0());
            w.write_u32(roi.x1());
            w.write_u32(roi.y1());
        }
        None => {
            w.write_u8(0);
            w.write_u32(0);
            w.write_u32(0);
            w.write_u32(0);
            w.write_u32(0);
        }
    }
}

/// Reads one [`MaskRecord`] written by [`write_record`].
pub fn read_record(r: &mut Reader<'_>) -> StorageResult<MaskRecord> {
    let mask_id = MaskId::new(r.read_u64()?);
    let image_id = ImageId::new(r.read_u64()?);
    let model_id = ModelId::new(r.read_u64()?);
    let mask_type = MaskType::from_code(r.read_u16()?);
    let width = r.read_u32()?;
    let height = r.read_u32()?;
    let has_true = r.read_u8()? != 0;
    let true_label = Label::new(r.read_u64()?);
    let has_pred = r.read_u8()? != 0;
    let predicted_label = Label::new(r.read_u64()?);
    let has_box = r.read_u8()? != 0;
    let (x0, y0, x1, y1) = (r.read_u32()?, r.read_u32()?, r.read_u32()?, r.read_u32()?);
    let object_box = if has_box {
        Some(
            Roi::new(x0, y0, x1, y1)
                .map_err(|_| StorageError::corrupt("catalog object box is degenerate"))?,
        )
    } else {
        None
    };
    let mut builder = MaskRecord::builder(mask_id)
        .image_id(image_id)
        .model_id(model_id)
        .mask_type(mask_type)
        .shape(width, height);
    if has_true {
        builder = builder.true_label(true_label);
    }
    if has_pred {
        builder = builder.predicted_label(predicted_label);
    }
    if let Some(roi) = object_box {
        builder = builder.object_box(roi);
    }
    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(mask_id: u64, image_id: u64, model_id: u64, pred: Option<u64>) -> MaskRecord {
        let mut b = MaskRecord::builder(MaskId::new(mask_id))
            .image_id(ImageId::new(image_id))
            .model_id(ModelId::new(model_id))
            .mask_type(MaskType::SaliencyMap)
            .shape(64, 64)
            .object_box(Roi::new(4, 4, 32, 32).unwrap());
        if let Some(p) = pred {
            b = b.predicted_label(Label::new(p));
        }
        b.build()
    }

    fn sample_catalog() -> Catalog {
        let mut c = Catalog::new();
        // Two models per image, three images.
        c.insert(record(1, 100, 1, Some(7)));
        c.insert(record(2, 100, 2, Some(7)));
        c.insert(record(3, 101, 1, Some(8)));
        c.insert(record(4, 101, 2, Some(8)));
        c.insert(record(5, 102, 1, None));
        c.insert(record(6, 102, 2, None));
        c
    }

    #[test]
    fn secondary_indexes_answer_lookups() {
        let c = sample_catalog();
        assert_eq!(c.len(), 6);
        assert_eq!(
            c.masks_of_image(ImageId::new(100)),
            vec![MaskId::new(1), MaskId::new(2)]
        );
        assert_eq!(
            c.masks_of_model(ModelId::new(1)),
            vec![MaskId::new(1), MaskId::new(3), MaskId::new(5)]
        );
        assert_eq!(c.masks_of_type(MaskType::SaliencyMap).len(), 6);
        assert!(c.masks_of_type(MaskType::DepthMap).is_empty());
        assert_eq!(
            c.masks_with_predicted_label(Label::new(8)),
            vec![MaskId::new(3), MaskId::new(4)]
        );
        assert_eq!(c.image_ids().len(), 3);
        // The count accessors agree with the lists without cloning them.
        assert_eq!(c.count_of_image(ImageId::new(100)), 2);
        assert_eq!(c.count_of_model(ModelId::new(1)), 3);
        assert_eq!(c.count_of_type(MaskType::SaliencyMap), 6);
        assert_eq!(c.count_of_type(MaskType::DepthMap), 0);
        assert_eq!(c.count_with_predicted_label(Label::new(8)), 2);
        assert_eq!(c.count_with_predicted_label(Label::new(99)), 0);
    }

    #[test]
    fn filter_and_group_by_image() {
        let c = sample_catalog();
        let model1 = c.filter(|r| r.model_id == ModelId::new(1));
        assert_eq!(model1.len(), 3);
        let groups = c.group_by_image(&c.mask_ids());
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].0, ImageId::new(100));
        assert_eq!(groups[0].1, vec![MaskId::new(1), MaskId::new(2)]);
        // Unknown mask ids are dropped.
        let groups = c.group_by_image(&[MaskId::new(1), MaskId::new(999)]);
        assert_eq!(groups.len(), 1);
    }

    #[test]
    fn insert_replaces_and_keeps_indexes_consistent() {
        let mut c = sample_catalog();
        // Move mask 1 to another image and model.
        c.insert(record(1, 200, 3, Some(9)));
        assert_eq!(c.len(), 6);
        assert_eq!(c.masks_of_image(ImageId::new(100)), vec![MaskId::new(2)]);
        assert_eq!(c.masks_of_image(ImageId::new(200)), vec![MaskId::new(1)]);
        assert_eq!(c.masks_of_model(ModelId::new(3)), vec![MaskId::new(1)]);
        assert_eq!(
            c.masks_with_predicted_label(Label::new(7)),
            vec![MaskId::new(2)]
        );
    }

    #[test]
    fn remove_updates_indexes_and_returns_the_record() {
        let mut c = sample_catalog();
        let removed = c.remove(MaskId::new(1)).unwrap();
        assert_eq!(removed.mask_id, MaskId::new(1));
        assert_eq!(c.len(), 5);
        assert!(c.get(MaskId::new(1)).is_none());
        assert_eq!(c.masks_of_image(ImageId::new(100)), vec![MaskId::new(2)]);
        assert!(!c.mask_ids().contains(&MaskId::new(1)));
        assert!(c.remove(MaskId::new(1)).is_none());
    }

    #[test]
    fn record_codec_round_trips_standalone() {
        let rec = record(42, 7, 3, Some(11));
        let mut w = Writer::new();
        write_record(&mut w, &rec);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "record");
        assert_eq!(read_record(&mut r).unwrap(), rec);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn binary_round_trip_preserves_all_fields() {
        let c = sample_catalog();
        let bytes = c.to_bytes();
        let decoded = Catalog::from_bytes(&bytes).unwrap();
        assert_eq!(decoded.len(), c.len());
        for id in c.mask_ids() {
            assert_eq!(decoded.get(id), c.get(id));
        }
    }

    #[test]
    fn file_round_trip() {
        let c = sample_catalog();
        let path = std::env::temp_dir().join(format!(
            "masksearch-catalog-test-{}.cat",
            std::process::id()
        ));
        c.save(&path).unwrap();
        let loaded = Catalog::load(&path).unwrap();
        assert_eq!(loaded.len(), 6);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_catalog_bytes_are_rejected() {
        let c = sample_catalog();
        let mut bytes = c.to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Catalog::from_bytes(&bytes),
            Err(StorageError::BadMagic { .. })
        ));
        let bytes = c.to_bytes();
        assert!(Catalog::from_bytes(&bytes[..bytes.len() - 4]).is_err());
    }
}
