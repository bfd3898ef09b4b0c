//! Dataset specifications and generation.
//!
//! A [`DatasetSpec`] describes a synthetic analogue of the paper's evaluation
//! datasets: how many images, how many models per image (the paper uses two
//! ResNet-50 checkpoints), the mask resolution, and the saliency-map
//! generator parameters. [`DatasetSpec::generate_into`] writes the masks into
//! any [`MaskStore`] and returns the metadata [`Catalog`] (including
//! per-image object boxes and predicted/true labels so exploration workloads
//! can target class subsets, §4.5).

use crate::saliency::SaliencyGenerator;
use masksearch_core::{ImageId, Label, MaskId, MaskRecord, MaskType, ModelId};
use masksearch_storage::{Catalog, MaskStore, StorageResult};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Specification of a synthetic mask dataset.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Human-readable dataset name (used in experiment output).
    pub name: String,
    /// Number of images.
    pub num_images: u64,
    /// Number of models producing one mask each per image.
    pub models: u64,
    /// Mask width in pixels.
    pub mask_width: u32,
    /// Mask height in pixels.
    pub mask_height: u32,
    /// Number of distinct class labels.
    pub num_classes: u64,
    /// RNG seed so datasets are reproducible.
    pub seed: u64,
    /// Probability that a model focuses on the foreground object.
    pub focus_probability: f64,
}

impl DatasetSpec {
    /// A tiny dataset for unit tests and doc examples.
    pub fn tiny() -> Self {
        Self {
            name: "tiny".to_string(),
            num_images: 16,
            models: 2,
            mask_width: 32,
            mask_height: 32,
            num_classes: 4,
            seed: 7,
            focus_probability: 0.7,
        }
    }

    /// A scaled-down analogue of the paper's WILDS dataset (22,275 images of
    /// 448×448 masks, two models). `scale` in `(0, 1]` controls the number
    /// of images; the default experiment scale is `scale = 0.1` with masks
    /// downscaled 4× so the experiments run on a laptop. The full-scale
    /// configuration is `DatasetSpec::wilds_like(1.0).full_resolution()`.
    pub fn wilds_like(scale: f64) -> Self {
        let scale = scale.clamp(1e-4, 1.0);
        Self {
            name: format!("wilds-sim (scale {scale})"),
            num_images: ((22_275.0 * scale) as u64).max(8),
            models: 2,
            mask_width: 112,
            mask_height: 112,
            num_classes: 182,
            seed: 42,
            focus_probability: 0.65,
        }
    }

    /// A scaled-down analogue of the paper's ImageNet dataset (1,331,167
    /// images of 224×224 masks, two models).
    pub fn imagenet_like(scale: f64) -> Self {
        let scale = scale.clamp(1e-6, 1.0);
        Self {
            name: format!("imagenet-sim (scale {scale})"),
            num_images: ((1_331_167.0 * scale) as u64).max(8),
            models: 2,
            mask_width: 64,
            mask_height: 64,
            num_classes: 1000,
            seed: 43,
            focus_probability: 0.7,
        }
    }

    /// Restores the paper's full mask resolution (448×448 for WILDS-like,
    /// 224×224 for ImageNet-like, inferred from the current resolution).
    pub fn full_resolution(mut self) -> Self {
        if self.name.starts_with("wilds") {
            self.mask_width = 448;
            self.mask_height = 448;
        } else {
            self.mask_width = 224;
            self.mask_height = 224;
        }
        self
    }

    /// Total number of masks (`images × models`).
    pub fn num_masks(&self) -> u64 {
        self.num_images * self.models
    }

    /// Uncompressed dataset size in bytes (4 bytes per pixel).
    pub fn uncompressed_bytes(&self) -> u64 {
        self.num_masks() * self.mask_width as u64 * self.mask_height as u64 * 4
    }

    /// Generates the dataset into `store`, one commit per mask with its
    /// record, returning the generated metadata.
    pub fn generate_into(&self, store: &dyn MaskStore) -> StorageResult<GeneratedDataset> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let generator = SaliencyGenerator::new(self.mask_width, self.mask_height)
            .focus_probability(self.focus_probability);
        let mut catalog = Catalog::new();
        let mut focused_flags = Vec::with_capacity(self.num_masks() as usize);
        let mut mask_id = 0u64;
        for image in 0..self.num_images {
            let object_box = generator.object_box(&mut rng);
            let true_label = Label::new(rng.gen_range(0..self.num_classes));
            for model in 0..self.models {
                let (mask, focused) = generator.generate(&object_box, &mut rng);
                // Unfocused (spurious) models misclassify more often.
                let correct_probability = if focused { 0.9 } else { 0.5 };
                let predicted = if rng.gen_bool(correct_probability) {
                    true_label
                } else {
                    Label::new(rng.gen_range(0..self.num_classes))
                };
                let id = MaskId::new(mask_id);
                let record = MaskRecord::builder(id)
                    .image_id(ImageId::new(image))
                    .model_id(ModelId::new(model + 1))
                    .mask_type(MaskType::SaliencyMap)
                    .shape(self.mask_width, self.mask_height)
                    .true_label(true_label)
                    .predicted_label(predicted)
                    .object_box(object_box)
                    .build();
                store.apply_batch(&[(record.clone(), mask)], &[])?;
                catalog.insert(record);
                focused_flags.push((id, focused));
                mask_id += 1;
            }
        }
        Ok(GeneratedDataset {
            spec: self.clone(),
            catalog,
            focused_flags,
        })
    }
}

/// The result of generating a dataset: the catalog plus ground-truth
/// information about which masks came from object-focused models (useful for
/// validating that queries retrieve the intended examples).
#[derive(Debug, Clone)]
pub struct GeneratedDataset {
    /// The specification the dataset was generated from.
    pub spec: DatasetSpec,
    /// Metadata catalog for every generated mask.
    pub catalog: Catalog,
    /// `(mask_id, focused_on_object)` for every generated mask.
    pub focused_flags: Vec<(MaskId, bool)>,
}

impl GeneratedDataset {
    /// Mask ids whose generating model focused on the foreground object.
    pub fn focused_mask_ids(&self) -> Vec<MaskId> {
        self.focused_flags
            .iter()
            .filter(|(_, f)| *f)
            .map(|(id, _)| *id)
            .collect()
    }

    /// Mask ids whose generating model focused on a spurious background
    /// location.
    pub fn spurious_mask_ids(&self) -> Vec<MaskId> {
        self.focused_flags
            .iter()
            .filter(|(_, f)| !*f)
            .map(|(id, _)| *id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use masksearch_storage::MemoryMaskStore;

    #[test]
    fn tiny_dataset_generates_consistent_catalog_and_store() {
        let spec = DatasetSpec::tiny();
        let store = MemoryMaskStore::for_tests();
        let dataset = spec.generate_into(&store).unwrap();
        assert_eq!(store.len() as u64, spec.num_masks());
        assert_eq!(dataset.catalog.len() as u64, spec.num_masks());
        assert_eq!(dataset.catalog.image_ids().len() as u64, spec.num_images);
        // Every record has an object box and labels.
        for record in dataset.catalog.records() {
            assert!(record.object_box.is_some());
            assert!(record.true_label.is_some());
            assert!(record.predicted_label.is_some());
            assert_eq!((record.width, record.height), (32, 32));
        }
        assert_eq!(
            dataset.focused_mask_ids().len() + dataset.spurious_mask_ids().len(),
            spec.num_masks() as usize
        );
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let spec = DatasetSpec::tiny();
        let store_a = MemoryMaskStore::for_tests();
        let store_b = MemoryMaskStore::for_tests();
        let a = spec.generate_into(&store_a).unwrap();
        let b = spec.generate_into(&store_b).unwrap();
        assert_eq!(a.focused_flags, b.focused_flags);
        for id in a.catalog.mask_ids() {
            assert_eq!(store_a.get(id).unwrap(), store_b.get(id).unwrap());
            assert_eq!(a.catalog.get(id), b.catalog.get(id));
        }
    }

    #[test]
    fn preset_specs_scale_sensibly() {
        let wilds = DatasetSpec::wilds_like(0.01);
        assert_eq!(wilds.num_images, 222);
        assert_eq!(wilds.models, 2);
        assert_eq!(wilds.num_masks(), 444);
        let imagenet = DatasetSpec::imagenet_like(0.001);
        assert_eq!(imagenet.num_images, 1331);
        let full = DatasetSpec::wilds_like(1.0).full_resolution();
        assert_eq!((full.mask_width, full.mask_height), (448, 448));
        assert_eq!(full.uncompressed_bytes(), 2 * 22_275 * 448 * 448 * 4);
    }

    #[test]
    fn two_masks_per_image_share_the_object_box() {
        let spec = DatasetSpec::tiny();
        let store = MemoryMaskStore::for_tests();
        let dataset = spec.generate_into(&store).unwrap();
        for image in dataset.catalog.image_ids() {
            let masks = dataset.catalog.masks_of_image(image);
            assert_eq!(masks.len(), 2);
            let boxes: Vec<_> = masks
                .iter()
                .map(|id| dataset.catalog.get(*id).unwrap().object_box)
                .collect();
            assert_eq!(boxes[0], boxes[1]);
        }
    }
}
