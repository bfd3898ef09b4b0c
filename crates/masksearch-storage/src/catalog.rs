//! The metadata catalog: every non-pixel column of `MasksDatabaseView`.
//!
//! The catalog is small (tens of bytes per mask) and always memory-resident;
//! it answers the relational part of a query — `model_id = 1`,
//! `mask_type IN (1, 2)`, `GROUP BY image_id`, "masks of images predicted as
//! class 7" — so the expensive mask-loading machinery only ever sees the
//! candidate set it actually needs to consider.

use crate::codec::{Reader, Writer};
use crate::cow_map::CowMap;
use crate::cursor::IdCursor;
use crate::error::{StorageError, StorageResult};
use masksearch_core::{ImageId, Label, MaskId, MaskRecord, MaskType, ModelId, Roi};

/// The secondary columns, as the first part of a posting's key.
const IMAGE: u8 = 0;
const MODEL: u8 = 1;
const TYPE: u8 = 2;
const PREDICTED: u8 = 3;

/// The secondary keys `(column, value)` a record is listed under.
fn secondary_keys(record: &MaskRecord) -> impl Iterator<Item = (u8, u64)> {
    [
        Some((IMAGE, record.image_id.raw())),
        Some((MODEL, record.model_id.raw())),
        Some((TYPE, u64::from(record.mask_type.to_code()))),
        record.predicted_label.map(|label| (PREDICTED, label.raw())),
    ]
    .into_iter()
    .flatten()
}

/// In-memory metadata catalog with secondary indexes.
///
/// Every part is a [`CowMap`], so a clone costs three `Arc` clones and a
/// write to a clone copies only the leaves it touches: a session publishes
/// each write batch as a new catalog while statements keep reading the one
/// they started with.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    records: CowMap<MaskId, MaskRecord>,
    /// One entry per (secondary key, mask): a value's masks are one range,
    /// ascending by id.
    postings: CowMap<(u8, u64, MaskId), ()>,
    /// Masks per secondary key.
    counts: CowMap<(u8, u64), u32>,
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

    /// A catalog of `records`, built in bulk; a later record for a mask id
    /// replaces an earlier one, as [`Catalog::insert`] does.
    pub fn from_records(records: impl IntoIterator<Item = MaskRecord>) -> Self {
        let mut sorted: Vec<(MaskId, MaskRecord)> =
            records.into_iter().map(|r| (r.mask_id, r)).collect();
        // Stable: of two records for one id, the later stays later.
        sorted.sort_by_key(|(mask_id, _)| *mask_id);
        let mut unique: Vec<(MaskId, MaskRecord)> = Vec::with_capacity(sorted.len());
        for entry in sorted {
            match unique.last_mut() {
                Some(last) if last.0 == entry.0 => *last = entry,
                _ => unique.push(entry),
            }
        }
        let mut postings: Vec<((u8, u64, MaskId), ())> = unique
            .iter()
            .flat_map(|(mask_id, record)| {
                secondary_keys(record).map(move |(column, value)| ((column, value, *mask_id), ()))
            })
            .collect();
        postings.sort_unstable_by_key(|(key, _)| *key);
        let counts: Vec<((u8, u64), u32)> = postings
            .chunk_by(|a, b| (a.0 .0, a.0 .1) == (b.0 .0, b.0 .1))
            .map(|run| ((run[0].0 .0, run[0].0 .1), run.len() as u32))
            .collect();
        Self {
            records: CowMap::from_sorted(unique),
            postings: CowMap::from_sorted(postings),
            counts: CowMap::from_sorted(counts),
        }
    }

    /// Inserts (or replaces) a record, keeping secondary indexes consistent.
    pub fn insert(&mut self, record: MaskRecord) {
        let mask_id = record.mask_id;
        if let Some(old) = self.records.insert(mask_id, record.clone()) {
            self.unlist(&old);
        }
        for (column, value) in secondary_keys(&record) {
            self.postings.insert((column, value, mask_id), ());
            let count = self.counts.get(&(column, value)).copied().unwrap_or(0);
            self.counts.insert((column, value), count + 1);
        }
    }

    /// Removes a record, keeping secondary indexes consistent. Returns the
    /// removed record, if any.
    pub fn remove(&mut self, mask_id: MaskId) -> Option<MaskRecord> {
        let old = self.records.remove(&mask_id)?;
        self.unlist(&old);
        Some(old)
    }

    /// Takes `record` out of the secondary indexes.
    fn unlist(&mut self, record: &MaskRecord) {
        for (column, value) in secondary_keys(record) {
            self.postings.remove(&(column, value, record.mask_id));
            match self.counts.get(&(column, value)).copied() {
                Some(1) | None => self.counts.remove(&(column, value)),
                Some(n) => self.counts.insert((column, value), n - 1),
            };
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

    /// All distinct image ids present in the catalog, ascending.
    pub fn image_ids(&self) -> Vec<ImageId> {
        self.counts
            .range_from((IMAGE, 0))
            .take_while(|((column, _), _)| *column == IMAGE)
            .map(|((_, image), _)| ImageId::new(*image))
            .collect()
    }

    /// Mask ids listed under one secondary key, ascending.
    fn listed(&self, column: u8, value: u64) -> Vec<MaskId> {
        self.postings
            .range_from((column, value, MaskId::new(0)))
            .take_while(|((c, v, _), _)| (*c, *v) == (column, value))
            .map(|((_, _, mask_id), _)| *mask_id)
            .collect()
    }

    fn count(&self, column: u8, value: u64) -> usize {
        self.counts.get(&(column, value)).map_or(0, |&n| n as usize)
    }

    /// Mask ids of all masks annotating `image_id`.
    pub fn masks_of_image(&self, image_id: ImageId) -> Vec<MaskId> {
        self.listed(IMAGE, image_id.raw())
    }

    /// Mask ids of all masks produced by `model_id`.
    pub fn masks_of_model(&self, model_id: ModelId) -> Vec<MaskId> {
        self.listed(MODEL, model_id.raw())
    }

    /// Mask ids of all masks of the given type.
    pub fn masks_of_type(&self, mask_type: MaskType) -> Vec<MaskId> {
        self.listed(TYPE, u64::from(mask_type.to_code()))
    }

    /// Mask ids of all masks whose image was predicted as `label`.
    pub fn masks_with_predicted_label(&self, label: Label) -> Vec<MaskId> {
        self.listed(PREDICTED, label.raw())
    }

    /// Number of masks annotating `image_id`, without listing them.
    pub fn count_of_image(&self, image_id: ImageId) -> usize {
        self.count(IMAGE, image_id.raw())
    }

    /// Number of masks produced by `model_id`, without listing them.
    pub fn count_of_model(&self, model_id: ModelId) -> usize {
        self.count(MODEL, model_id.raw())
    }

    /// Number of masks of the given type, without listing them.
    pub fn count_of_type(&self, mask_type: MaskType) -> usize {
        self.count(TYPE, u64::from(mask_type.to_code()))
    }

    /// Number of masks whose image was predicted as `label`, without
    /// listing them.
    pub fn count_with_predicted_label(&self, label: Label) -> usize {
        self.count(PREDICTED, label.raw())
    }

    /// Mask ids whose records satisfy an arbitrary predicate.
    pub fn filter(&self, mut predicate: impl FnMut(&MaskRecord) -> bool) -> Vec<MaskId> {
        self.records
            .values()
            .filter(|r| predicate(r))
            .map(|r| r.mask_id)
            .collect()
    }

    /// The given mask ids keyed by their image id, dropping ids not present
    /// in the catalog: one flat list sorted by image, then mask id, so a
    /// group is a run of it. `mask_ids` should come ascending (the records
    /// are read through a cursor).
    pub fn by_image(&self, mask_ids: &[MaskId]) -> Vec<(ImageId, MaskId)> {
        let mut records = self.cursor();
        let mut keyed: Vec<(ImageId, MaskId)> = mask_ids
            .iter()
            .filter_map(|&id| records.seek(id).map(|record| (record.image_id, id)))
            .collect();
        keyed.sort_unstable();
        keyed
    }

    /// Groups the given mask ids by their image id, dropping ids not present
    /// in the catalog. Groups and their members are sorted.
    pub fn group_by_image(&self, mask_ids: &[MaskId]) -> Vec<(ImageId, Vec<MaskId>)> {
        self.by_image(mask_ids)
            .chunk_by(|a, b| a.0 == b.0)
            .map(|group| (group[0].0, group.iter().map(|&(_, id)| id).collect()))
            .collect()
    }
}

/// Appends one [`MaskRecord`] in a fixed binary layout: how the durable
/// mask database embeds records in its WAL-protected directory, so a crash
/// cannot separate a mask's pixels from its metadata.
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
    fn a_bulk_built_catalog_equals_one_built_by_inserts() {
        let mut records: Vec<MaskRecord> = (0..300u64)
            .map(|i| record(i * 7 % 300, i % 13, i % 3, (i % 4 != 0).then_some(i % 5)))
            .collect();
        // A later record for an id replaces an earlier one.
        records.push(record(5, 99, 9, None));
        let bulk = Catalog::from_records(records.clone());
        let mut inserted = Catalog::new();
        for record in records {
            inserted.insert(record);
        }
        assert_eq!(bulk.len(), inserted.len());
        assert!(bulk.records().eq(inserted.records()));
        assert_eq!(bulk.image_ids(), inserted.image_ids());
        for value in 0..100 {
            assert_eq!(
                bulk.masks_of_image(ImageId::new(value)),
                inserted.masks_of_image(ImageId::new(value))
            );
            assert_eq!(
                bulk.count_of_model(ModelId::new(value)),
                inserted.count_of_model(ModelId::new(value))
            );
            assert_eq!(
                bulk.masks_with_predicted_label(Label::new(value)),
                inserted.masks_with_predicted_label(Label::new(value))
            );
        }
        assert_eq!(
            bulk.count_of_type(MaskType::SaliencyMap),
            inserted.count_of_type(MaskType::SaliencyMap)
        );
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
}
