"""The fixed preprocessing pipeline, stage by stage.

Order is always crop -> area resize -> horizontal flip of selected images
-> [0,1] normalization + per-channel standardization.  Values shown on a
dummy fundus-photograph-sized image (3 x 4288 x 2848, raw 8-bit range).

Run: python3 demos/preprocessing_pipeline.py
"""

import numpy as np

from globalattn import PreprocessSpec, apply_pipeline
from globalattn.preprocess import (crop_columns, hflip, load_flip_indices,
                                   normalize_standardize, packaged_flip_list,
                                   resize_area)

rng = np.random.default_rng(0)
image = rng.uniform(0, 255, size=(3, 4288, 2848))

# 1. crop away the black side margins: keep columns 260..3685 inclusive
cropped = crop_columns(image, 260, 3685)
print("crop:", image.shape, "->", cropped.shape)

# 2. area interpolation down to 224x224 (each output pixel is the exact
# area-weighted average of the source pixels its footprint covers)
small = resize_area(cropped, (224, 224))
print("resize:", cropped.shape, "->", small.shape,
      f"(global mean drifts {abs(small.mean() - cropped.mean()):.2e})")
del cropped  # free the 234 MB crop before the batch run below

# 3. right-eye images are mirrored so both eyes share one orientation
flipped = hflip(small)
print("flip is an involution:",
      bool(np.array_equal(hflip(flipped), small)))

# 4. scale to [0,1] and standardize with the usual channel statistics
stats = ((0.485, 0.229), (0.456, 0.224), (0.406, 0.225))
final = normalize_standardize(flipped, stats)
print(f"standardized channel means: {final.mean(axis=(1, 2)).round(3)}")

# The same flow runs batch-wise through a PreprocessSpec.  The flip-index
# lists for the public fundus dataset ship with the package.
train_flips = load_flip_indices(packaged_flip_list("idrid_train"))
print(f"packaged right-eye flip list: {len(train_flips)} training images")

spec = PreprocessSpec(crop_left=260, crop_right=3685, target_size=(224, 224),
                      flip_indices=frozenset({0}), channel_stats=stats)
out = apply_pipeline(spec, [image])  # any iterable of (C, W, H) images
print("batch pipeline output:", len(out), "x", out[0].shape)
