from .manifolds import ManifoldModel, ProductModel, SphereModel, TorusModel
from .systems import (
    CriticalPoint,
    MorseSystem,
    parse_system_config,
    product_system,
    sphere_band,
    sphere_height,
    torus_cosine,
)
from .flow import (
    CONVERGED,
    FIXED_TIME,
    MAX_TIME,
    FlowResult,
    fixed_time_flow,
    flow,
    orientation_sign,
    orthonormalize,
    parallel_frame,
    probe_limits,
    transport_frame,
)

__all__ = [
    "ManifoldModel", "ProductModel", "SphereModel", "TorusModel",
    "CriticalPoint", "MorseSystem", "parse_system_config",
    "product_system", "sphere_band", "sphere_height", "torus_cosine",
    "CONVERGED", "FIXED_TIME", "MAX_TIME", "FlowResult",
    "fixed_time_flow", "flow", "orientation_sign", "orthonormalize",
    "parallel_frame", "probe_limits", "transport_frame",
]
