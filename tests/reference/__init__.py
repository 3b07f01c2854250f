"""Slow, obviously-correct oracles that property tests check ``src/`` against.

Each module keeps a straightforward implementation that ``src/repro``
replaced with a faster one; the property tests assert the two agree
bit for bit.  ``src/`` never imports from here.

* ``kmeans`` — unweighted Hamming k-means over every calibration row
  (``repro.core.kmeans.binary_kmeans`` clusters distinct rows weighted
  by multiplicity);
* ``sparsity`` — per-row pattern matching and decomposition
  (``repro.core.sparsity`` matches each distinct row once), and the XOR
  popcount recount of Level 2 from stored assignments (the store now
  keeps the counts with the assignments);
* ``preprocessor`` — the object-stream compressor, packer and L2 pack
  costing (``repro.hw`` runs per-row counters: ``plan_preprocess``,
  ``pack_counts_batch``, whose NumPy lockstep machine keeps a multi-word
  bank mask per window, and ``L2Processor.pack_cycles_for``);
* ``baselines`` — PTB's per-window spike scan (``PTB._processed_positions``
  reads each row's window as one unsigned integer) and SATO's per-group
  load-imbalance loop (``load_imbalance_cycles`` reduces cached row spike
  counts in one pass);
* ``paft`` — per-row PAFT alignment through ``PatternSet.bits_of``
  (``ActivationAligner.align_layer`` flips the drawn bits with one XOR).
"""
