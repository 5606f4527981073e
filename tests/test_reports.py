"""Every suite's report at default parameters is pinned by its digest, and so
are heavier parameter sets of the Fock-side, finite-field, Clifford,
Pluecker-ideal, T-shuffle export, divided-power, determinant-identity and
n-dominance suites, and of the Kostka-Foulkes check at n = 2, 3 and 5.

The digest is the sha256 of the report as canonical JSON (sorted keys, no
whitespace) without its ``wall_time_ms``, the only field that varies between
runs.  A refactor that changes any report byte changes a digest here.
"""

import hashlib
import json

import pytest

from grfock import cli

PINNED = {
    "clifford": "1c8c76c6eefa0d9653e9c1dd1589145c0c0e1026e9c5e5884d60ee863f3e8f3b",
    "signs": "6f18dd9706b4445534f0d3a53fea64b51a8f251f01e05082bd0d4c32ead276b6",
    "pluecker-ideal": "5a049c19936384af46144957ebd17f35ffffbb4786c2e219f5f6f740b8db88a8",
    "divided-powers": "a1cece95bc0ff2d05061a5cf89bf0a25021d0628228b180837f4bdf70d3f510e",
    "det-identity": "a2fd6038439df658c20173f1647aa0217c3957e4225bafc68046783b27d54c0f",
    "shuffle-span": "3298ba81817c2dee19479f90c506d77059d0778b1ed9ff4a85ae21bb76737c9d",
    "straighten": "b03c3385bcbc4587f073f4db69fd3e7529f948498d6147a5955e97ace3826e6e",
    "kf": "affca3791b5d7c18a3c15a20701f3509382d2838b799721483a7a0e77f656b9d",
    "fpoints": "0b11b703799865a685f5c960f4e86c2276545cd825c3a7f0cb026eb1ad617edc",
    "tangent": "c01307931ba42ad4d2c3908ae9def104af489877472899c9421844d6be26e7db",
    "ndominance": "b9ff36965e0bd21e67ac0b0681d189517241dab31723422fff5946ce3360aff8",
    "export-generators": "b37c83846c3a147af4b26d0541aff99bbc52cc16e41f98761a8bee5e1ba87f8a",
}

HEAVY = {
    "straighten --n 2 --size 14": "b4c491072c2b858726ed8e8dbe1669edd1553f7e1a9d06f8517ebea7fc363129",
    "straighten --n 2 --size 18": "ef94016bafcbf74dfa8e9a94be826b30e2fb9678a01fb7d06afc996bc1dc331a",
    "shuffle-span --n 2 --size 14": "e22f1855172124281f2941a316656550c37d71e0d524c846380a2a9b7ad3ab5c",
    "fpoints --p 2 --dim 5": "1e3578b1af77a29c46575b1a2d1a11688f4fe834476ab4bc6bbf6dd9d40c3474",
    "tangent --p 3 --dim 4": "8ac65f78484ba7da92eeca67864dc1cf5738f9b63740d0c3952e0955094a3281",
    # the fpoints benchmark workload; equal to its pin in perfbench/run.py
    "fpoints --p 3 --dim 5": "f53327926809c700dbd2e0f994db9cd3be5c3e171e6b6b6b363ac835c624bc86",
    "fpoints --p 2 --dim 6": "4538e7f8abfffdaa2592490bc889c2149d64a39292a3e7be816cbf34ed9a0b49",
    "tangent --p 2 --dim 6": "c332c189968f7047c23f6797e127078041efbc61518f19bf1ed6138cbcc96c7c",
    "kf --n 2 --size 9": "e9e7ab21263420a532a2779a712b8096d4a1a8fe587e3611962bfa324b14f089",
    "kf --n 3 --size 9": "7c561213cc8520360070638e38884faf35262f443f20ffa54208a4885ecaccbe",
    "kf --n 2 --size 10": "ade7b55bfc050737302fb82351c0ef48b735d16afff363fee27d1167b40d8467",
    "clifford --n 7 --size 8": "3c3cfa808260a834e0a1e9e6674923d05d77328f359fbdf9d2dfd54661ff6c60",
    "pluecker-ideal --k 3 --n 7": "711ae7ca7965acc53a3634a9a0af608863bde6fb45d41da7898559b59151bb3c",
    "pluecker-ideal --k 3 --n 8": "c70928464a1d29e5a0d5de6f38875f462f4e9226533280272665f197e9b0ee0b",
    # k = n - k: the one case whose d range tops out at both k and n - k
    "pluecker-ideal --k 4 --n 8": "a56aad5b1c4eec404fbb13289cabb57e73afbbbdb4680d8193d7090616c88eb2",
    "export-generators --target tshuffle --jordan 4,2 --k 3":
        "312689bf604e79fefc92cad3dca72db3289caee0455ab6968a239161f6c07c8f",
    "divided-powers --seed 7": "431f814c22db5929a83d3f22a7e4eb32e767b70a3b14ff335be5aa12ce120d66",
    "kf --n 5 --size 8": "a125f328ebd35666eb84250028c6c4621b6fd1de1b36e5922ac4444edc34d34e",
    "det-identity --n 3 --k 7": "60c2371f5104203bc4cfc2ec5b77380421356fd94dea5e236117a40b458ccbae",
    # its witness has 7 terms, so the sorted order of HPoly's repr is pinned
    "det-identity --n 5 --k 5": "03de193af40d5727cf7e11bf6fff1a52d4bb3447b8dbfae84cdf705bc0eb7c2a",
    "ndominance --n 2 --size 18": "73e6e5075c2a32b20a15bc31d14f642fd83b49336a6b4006bf53bd543357cfb1",
}


def report_digest(report: dict) -> str:
    report = {key: value for key, value in report.items() if key != "wall_time_ms"}
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def test_every_suite_is_pinned():
    assert set(PINNED) == set(cli.SUITES)


@pytest.mark.parametrize("suite", sorted(PINNED))
def test_default_report_digest(suite):
    report = cli.run(suite, cli.build_parser().parse_args([suite]))
    assert report["totals"]["fail"] == 0
    assert report_digest(report) == PINNED[suite]


@pytest.mark.parametrize("argv", sorted(HEAVY))
def test_heavy_report_digest(argv):
    args = cli.build_parser().parse_args(argv.split())
    report = cli.run(args.command, args)
    assert report["totals"]["fail"] == 0
    assert report_digest(report) == HEAVY[argv]
