"""Spoken-digit ablation benchmark.

Separates what a nonlinear acoustic filterbank contributes to
spoken-digit recognition from what a time-multiplexed single-oscillator
reservoir adds on top, using a linear pseudo-inverse readout and
exhaustive balanced cross-validation throughout.
"""

from .dataset import (AudioClip, DigitLabel, Manifest, ManifestEntry,
                      SubsetPartition, add_noise, build_synth_manifest,
                      load_manifest, partition_subsets, read_clip, synth_digit)
from .errors import (CacheError, ConfigError, DataError, DegenerateInputWarning,
                     ManifestError, NumericalError, PartitionError, ResonetError)
from .evalharness import (ConditionReport, CrossValReport, FoldMetrics, FoldSpec,
                          GainReport, PipelineSpec, PreparedCorpus, alpha_sweep,
                          chance_band, cross_validate, enumerate_folds,
                          prepare_corpus, run_fold, stratified_report)
from .filterbank import (CochlearConfig, FeatureMatrix, MfccConfig, StftConfig,
                         cochleagram, exponent_transform, featurize, mfcc,
                         normalize_maxabs, pad_to, spectro_hp_from_complex,
                         stft_complex)
from .readout import (Metrics, ReadoutModel, ReadoutOptions, build_targets,
                      classify, predict, score_mse, score_wsr, train_pinv)
from .reservoir import (BinaryMask, NeuronStates, StnoParams, TanhParams,
                        gen_mask, mask_and_flatten, node_run_reference,
                        reshape_states, stno_run)

__version__ = "0.1.0"
