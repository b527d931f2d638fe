"""Analytical models from Section IV-B/IV-C: transfer-queue overflow
(random walk and M/M/1/K) and off-DIMM traffic accounting."""
