"""Exact Hodge-Laplace spectra on p-forms of compact flat manifolds given
as Bieberbach groups over the cubic lattice."""
