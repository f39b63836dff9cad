"""Tensor evolution, classification and structure results for submanifolds
with relative nullity in space forms, at desk scale.  Import each name from
its module (``nullgeo.core``, ``nullgeo.classify``, ...): this root loads none."""

__version__ = "0.1.0"
