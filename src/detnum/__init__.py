"""detnum: numerical kernels for detection-loss geometry and verification.

Submodules
----------
boxes       axis-aligned box values, IoU, enclosure geometry
losses      angle/distance/shape/IoU cost components, composite and baseline
            box losses, analytic gradients
transport   discrete Monge-Kantorovich matching (Sinkhorn-Knopp + exact
            small-instance solvers)
tensor      minimal rank-4 tensor values, conv2d, blob IO
attention   channel + spatial attention and the cascaded composition
fuse        batch-norm folding and a two-path fusion block
metrics     precision / recall / AP / mAP over scored detections
robustness  brightness and noise degradation sweeps, PSNR, banding
cli         `detnum` command-line entry point
"""

from .boxes import AABox, iou

__all__ = ["AABox", "iou"]

__version__ = "0.1.0"
