//! The benchmark's seeded dataset: records up front, pixels on demand.
//!
//! The shape is the repository's WILDS-like one (`SaliencyGenerator`, focus
//! 0.65, 182 labels, two models per image, per-image object boxes). Records
//! are cheap and generated eagerly; a mask's pixels are a pure function of
//! `(seed, mask_id)`, so set-up can stream batches into the database without
//! the benchmark ever holding the dataset in memory (which would otherwise be
//! most of `peak_rss_mb`).

use masksearch_core::{ImageId, Label, Mask, MaskId, MaskRecord, MaskType, ModelId, Roi};
use masksearch_datagen::SaliencyGenerator;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Models producing one mask each per image.
pub const MODELS: u64 = 2;
/// Distinct class labels (the WILDS-like count).
pub const CLASSES: u64 = 182;
/// Probability that a model's saliency lands on the object box.
const FOCUS: f64 = 0.65;
/// Probability that a mask's predicted label equals the image's true label.
const CORRECT: f64 = 0.76;

/// Size of a dataset; everything else is fixed by the constants above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetSpec {
    /// Number of images (`MODELS` masks each).
    pub images: u64,
    /// Mask width and height in pixels.
    pub side: u32,
    /// Seed of every random choice.
    pub seed: u64,
}

impl DatasetSpec {
    /// Number of masks.
    pub fn masks(&self) -> u64 {
        self.images * MODELS
    }

    /// Raw pixel bytes of one mask (f32 pixels).
    pub fn mask_bytes(&self) -> u64 {
        self.side as u64 * self.side as u64 * 4
    }

    fn generator(&self) -> SaliencyGenerator {
        SaliencyGenerator::new(self.side, self.side).focus_probability(FOCUS)
    }

    /// The record of every mask, in mask-id order. Mask `i` belongs to image
    /// `i / MODELS` and model `i % MODELS + 1`.
    pub fn records(&self) -> Vec<MaskRecord> {
        self.records_from(0, self.images)
    }

    /// Records for `count` further images starting at image `first_image` —
    /// the ids a writer appends after the base dataset.
    pub fn records_from(&self, first_image: u64, count: u64) -> Vec<MaskRecord> {
        let generator = self.generator();
        let mut records = Vec::with_capacity((count * MODELS) as usize);
        for image in first_image..first_image + count {
            let mut rng = ChaCha8Rng::seed_from_u64(mix(self.seed ^ 0x0069_6d61_6765, image));
            let object_box = generator.object_box(&mut rng);
            let true_label = Label::new(rng.gen_range(0..CLASSES));
            for model in 0..MODELS {
                let predicted = if rng.gen_bool(CORRECT) {
                    true_label
                } else {
                    Label::new(rng.gen_range(0..CLASSES))
                };
                records.push(
                    MaskRecord::builder(MaskId::new(image * MODELS + model))
                        .image_id(ImageId::new(image))
                        .model_id(ModelId::new(model + 1))
                        .mask_type(MaskType::SaliencyMap)
                        .shape(self.side, self.side)
                        .true_label(true_label)
                        .predicted_label(predicted)
                        .object_box(object_box)
                        .build(),
                );
            }
        }
        records
    }

    /// The pixels of the mask `record` describes.
    pub fn mask(&self, record: &MaskRecord) -> Mask {
        let object_box = record
            .object_box
            .unwrap_or_else(|| Roi::new(0, 0, self.side, self.side).expect("side is non-zero"));
        self.generator()
            .generate_seeded(&object_box, mix(self.seed, record.mask_id.raw()))
            .0
    }

    /// Generates the masks of `records` on `threads` threads, in order.
    pub fn masks_of(&self, records: &[MaskRecord], threads: usize) -> Vec<(MaskRecord, Mask)> {
        let chunk = records.len().div_ceil(threads.max(1)).max(1);
        let mut out = Vec::with_capacity(records.len());
        std::thread::scope(|scope| {
            let workers: Vec<_> = records
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        part.iter()
                            .map(|r| (r.clone(), self.mask(r)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for worker in workers {
                out.extend(worker.join().expect("generator thread"));
            }
        });
        out
    }
}

/// SplitMix64-style mixing of a seed with a stream index.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_dataset_and_other_seed_differs() {
        let a = DatasetSpec {
            images: 8,
            side: 32,
            seed: 3,
        };
        let b = DatasetSpec {
            images: 8,
            side: 32,
            seed: 4,
        };
        assert_eq!(a.records(), a.records());
        assert_ne!(a.records(), b.records());
        let record = &a.records()[5];
        assert_eq!(a.mask(record), a.mask(record));
        assert_ne!(a.mask(record), b.mask(record));
        assert_eq!(a.records().len() as u64, a.masks());
    }

    #[test]
    fn parallel_generation_matches_sequential() {
        let spec = DatasetSpec {
            images: 5,
            side: 16,
            seed: 9,
        };
        let records = spec.records();
        let parallel = spec.masks_of(&records, 3);
        assert_eq!(parallel.len(), records.len());
        for (record, mask) in &parallel {
            assert_eq!(*mask, spec.mask(record));
        }
    }

    #[test]
    fn appended_records_continue_the_id_space() {
        let spec = DatasetSpec {
            images: 4,
            side: 16,
            seed: 1,
        };
        let more = spec.records_from(4, 2);
        assert_eq!(more[0].mask_id, MaskId::new(8));
        assert_eq!(more[3].image_id, ImageId::new(5));
    }
}
