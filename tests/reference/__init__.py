"""Slow, obviously-correct oracles that property tests check ``src/`` against.

Each module keeps a straightforward implementation that ``src/repro``
replaced with a faster one; the property tests assert the two agree
bit for bit.  ``src/`` never imports from here.

* ``kmeans`` — unweighted Hamming k-means over every calibration row
  (``repro.core.kmeans.binary_kmeans`` clusters distinct rows weighted
  by multiplicity);
* ``sparsity`` — per-row pattern matching of one partition, with its
  own per-tile result type (``repro.core.sparsity.decompose_matrix``
  matches each distinct row once and writes straight into the two
  ``(M, partitions)`` matrices), the XOR popcount recount of Level 2
  from stored assignments (the store now keeps the counts with the
  assignments), and ``check_decomposition``, which asserts that the
  stored counts agree with Level 2 and with that recount;
* ``metrics`` — decomposition metrics from a scan of each partition's
  Level 2, built from its activations and pattern rows
  (``decomposition_metrics`` reads the stored counts);
* ``preprocessor`` — the object-stream compressor, packer and L2 pack
  costing (``repro.hw`` runs per-row counters: ``plan_preprocess``,
  ``pack_counts_batch``, whose NumPy lockstep machine keeps a multi-word
  bank mask per window, and ``L2Processor.pack_cycles_for``);
* ``baselines`` — PTB's per-window spike scan (``PTB._processed_positions``
  reads each row's window as one unsigned integer) and SATO's per-group
  load-imbalance loop (``load_imbalance_cycles`` reduces cached row spike
  counts in one pass);
* ``paft`` — per-row PAFT alignment that copies each assigned row's
  pattern bits (``ActivationAligner.align_layer`` flips the drawn bits
  with one XOR).
"""
