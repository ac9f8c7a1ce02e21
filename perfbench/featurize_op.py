"""The featurize-cochlear operation: the ``resonet featurize`` loop, driven
through the library on a chosen sample of corpus clips.

For each sampled clip it runs ``realize_clip`` -> ``featurize(kind="cochlear")``
-> ``write_feature_cache``, exactly as ``cmd_featurize`` does, and then
``read_feature_cache`` on every file written.  It writes every clip's
features, in clip order, as little-endian float64 to ``features.bin`` in
OUT_DIR, and to ``features.json`` the clip ids and shapes and whether every
cache read returned exactly what was written.

    PYTHONPATH=src python3 perfbench/featurize_op.py CONFIG CACHE_DIR OUT_DIR \
        SYNTH_SEED CLIP_INDEX[,CLIP_INDEX...]
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    config_path, cache_dir, out_dir, synth_seed, clip_list = argv
    import numpy as np
    from pathlib import Path

    from resonet import cachefile, dataset, filterbank
    from resonet.config import apply_seed_overrides, parse_config

    cfg = apply_seed_overrides(parse_config(config_path), [f"synth_seed={synth_seed}"])
    manifest, _ = cfg.load_corpus()
    pipeline = cfg.pipeline()
    feature_hash = cfg.feature_hash()
    cache = Path(cache_dir) / feature_hash
    entries = [manifest.entries[int(i)] for i in clip_list.split(",")]

    written = {}
    for entry in entries:
        clip = dataset.realize_clip(entry, sample_rate=manifest.sample_rate,
                                    noise_seed=cfg["corpus.noise_seed"])
        fm = filterbank.featurize(clip, pipeline.filter_kind, pipeline.alpha,
                                  stft_cfg=pipeline.stft, mfcc_cfg=pipeline.mfcc,
                                  cochlear_cfg=pipeline.cochlear)
        path = cache / f"{entry.clip_id}.rnbf"
        cachefile.write_feature_cache(path, fm, feature_hash)
        written[entry.clip_id] = (path, fm)

    roundtrip_ok = True
    for clip_id, (path, fm) in written.items():
        back = cachefile.read_feature_cache(path, feature_hash)
        roundtrip_ok &= (back.clip_id == clip_id and back.filter_kind == fm.filter_kind
                         and np.array_equal(back.values, fm.values))

    out = Path(out_dir)
    with open(out / "features.bin", "wb") as fh:
        for _, fm in written.values():
            fh.write(np.ascontiguousarray(fm.values, dtype="<f8").tobytes())
    result = {"roundtrip_ok": bool(roundtrip_ok),
              "clips": [[cid, *map(int, fm.values.shape)] for cid, (_, fm) in written.items()]}
    (out / "features.json").write_text(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
