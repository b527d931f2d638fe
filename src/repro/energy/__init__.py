"""DRAM energy and buffer-chip area models (the Micron-calculator/CACTI
substitutes used for Figure 10 and the area paragraph of Section IV-B)."""
