"""Foreground/background surveillance video codec.

Static scenery is carried by a handful of coded background templates with
linear interpolation between them; moving content is cut into grid-aligned
regions and coded by block motion plus transformed residuals, all wrapped
in an indexed container built for random access.
"""

__version__ = "0.1.0"
