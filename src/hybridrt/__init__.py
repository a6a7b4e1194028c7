"""hybridrt: hybrid surface/volume path tracer with HDR calibration,
emitter estimation, and XPBD dynamics.

`hybridrt.render` is the render module; the function is
`hybridrt.render.render`.
"""

__version__ = "0.1.0"
