"""Every suite's report at default parameters is pinned by its digest.

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
