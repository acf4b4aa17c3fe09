"""Foreground/background surveillance video codec.

Static scenery is carried by a handful of coded background templates with
linear interpolation between them; moving content is cut into grid-aligned
regions and coded by block motion plus transformed residuals, all wrapped
in an indexed container built for random access.
"""

from .bgmodel import (GmmParams, GmmState, SeparationResult, background_estimate,
                      gmm_init, gmm_update)
from .bgtemplate import (TemplateChain, decode_template, encode_template,
                         interpolated_background)
from .container import (ContainerError, FbvStream, ForegroundRecord,
                        StreamHeader, TemplateRecord, build_segments, budget_of,
                        read_stream, write_stream)
from .core import (ConfigError, FbvError, Frame, Region, VideoFormatError, VideoSequence,
                   frame_from_planes, read_y4m, write_y4m)
from .decode import composite, enhance
from .entropy import BitBudgetReport, ContextModel, EntropyDecodeError
from .evaluate import (QualityReport, RdPoint, quality_csv, rd_sweep, score,
                       summary_json, sweep_csv)
from .fgregion import RegionSet, combine_regions, fp
from .metrics import bpp, fb_mixture, laplacian_sharpness, ms_ssim, psnr
from .motion import FlowField, decode_flow, encode_flow, estimate_flow, warp
from .pipeline import (QUALITY_LADDER, DecodeResult, EncodeResult, EncoderConfig,
                       analyze_bytes, decode_bytes, decode_frame, decode_stream,
                       encode, ladder_point)
from .residual import (QualityPoint, decode_residual, encode_residual, quantize,
                       reconstruct_foreground)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
