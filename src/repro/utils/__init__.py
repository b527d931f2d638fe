"""Small shared helpers: bit manipulation and deterministic randomness."""
