"""hybridrt: hybrid surface/volume path tracer with HDR calibration,
emitter estimation, and XPBD dynamics.

`hybridrt.render` is the render module; the function is
`hybridrt.render.render`.
"""

__version__ = "0.1.0"

from .core import Transform, tone_map
from .field import RadianceGrid, SdfGrid, bake_sdf_from_mesh
from .images import HdrImage, read_pfm, read_ppm, write_pfm, write_ppm
from .render import Camera, EmitterSet
from .scene import SceneConfig, build_scene, load_scene, parse_scene, serialize_scene
from .surface import Bsdf, Bvh, Dielectric, Lambertian, Mirror, TriangleMesh, load_obj

__all__ = [name for name in dir() if not name.startswith("_")]
