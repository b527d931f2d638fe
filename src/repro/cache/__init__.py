"""Set-associative cache models (LLC, PLB, on-chip ORAM-level cache)."""
