"""Byte identity of training and audit outputs against pinned digests.

Every method of `METHODS` runs one seed on a small ball stream, with the
auxiliary encoder terms off and on (lambda_p = lambda_s in {0, 0.1}).  One
sha256 per (method, setting) covers the run's results payload, its omega
log and the bytes of every final model parameter; ESM-ER, which cannot
train a four-domain stream, pins its ConfigError message instead.  A change
that moves any output bit fails here, naming the method and the setting.

The digests were taken with NumPy 2.4.6 and single-threaded BLAS
(OMP_NUM_THREADS = OPENBLAS_NUM_THREADS = MKL_NUM_THREADS = 1).  A change
that alters outputs on purpose, or a different NumPy, re-pins them and
says so in CHANGES.md.

One more sha256 covers the bound audit: a fixed block of instances drawn
as gate 1 draws them, each with its five reports (the intra, cross,
unified, grid and erm-shape checks, the last at c_gen = 1).  Each report
enters as its name, counts, `repr(max_violation)` and details, whose
floats JSON writes by their repr, so every bit of every report counts.
"""
import hashlib
import json

import numpy as np
import pytest

from dilkit.bounds import (check_cross_bound, check_erm_bound_shape,
                           check_intra_bound, check_unified_bound,
                           random_instance, tightest_bound_grid)
from dilkit.coeffs import METHODS
from dilkit.datagen import ConfigError, gen_hd_balls
from dilkit.expcli.runio import (OMEGA_HEADER, dump_json, format_csv,
                                 omega_rows, results_payload)
from dilkit.losses import HyperParams
from dilkit.models import ArchConfig, SgdConfig
from dilkit.seeding import substream
from dilkit.trainer import TrainerConfig, run_sequence

PINNED_NUMPY = "2.4.6"
STEPS = 16
SETTINGS = (0.0, 0.1)  # lambda_p = lambda_s
DIGESTS = {
    ('UDIL', 0.0): "b157fa956a19a6f8ec56790a700e999441d56c9d8a8ba5fdee183ca76c210b8c",
    ('UDIL', 0.1): "6f2a02ce45574649eb369a81ba581dedd5f0d3a5490ac10ae05ac37fa4f0f712",
    ('LwF', 0.0): "d215a74a16826ba1baf832c83f926657990a9868299af820c5dbcae60b3c00bf",
    ('LwF', 0.1): "999dd37c0b66034976132bedb3e7791aefbe0d9ad7de5a12d5152ee76257c33b",
    ('ER', 0.0): "5e9106554cc563ad3a545effce15f6f0be5a76ea54c94d5f5165359180eefebd",
    ('ER', 0.1): "b371ea55c4b863df80d4d63339144fb418fdc65dc8650651ecd1d5dd00393e2e",
    ('DER++', 0.0): "e9a7ce383d6538094961af5b8cfcaf3da67c083506c2a294e044d9660ee06681",
    ('DER++', 0.1): "e09e676ac28aa0848a08a091d2465acd9236ec4bb0d6e7bf7b3fc091e991dee2",
    ('iCaRL', 0.0): "1c1930e700c17b522218a37d3879ec0126066a7e3cfba2afec56168245b155fe",
    ('iCaRL', 0.1): "d949e826198a7dd907ba632bdb9d2aeb1c95cb9e86ca152ab022f347132d71c0",
    ('CLS-ER', 0.0): "dc897f19cefb00a40e15a82bb78b9aa3da337feb37fbeb377e76fd342b7ed260",
    ('CLS-ER', 0.1): "9f073b0e01eaf12a8eb0bc3e116019e3439a0fade98c37f1c3fb776224f6dc0f",
    ('ESM-ER', 0.0): "7eb826212f7e4efbc691919dd756af2e6f2c2090f18c196da736214eb1c9e2f6",
    ('ESM-ER', 0.1): "7eb826212f7e4efbc691919dd756af2e6f2c2090f18c196da736214eb1c9e2f6",
    ('BiC', 0.0): "498537205b2ea53a612414d05644278e79a45ad49bcc362f058ac30ab68430a9",
    ('BiC', 0.1): "fbaa5c0ecd3928854e13732ac66aafc29b5215356b9703e7032d24162e805e62",
    ('FineTune', 0.0): "e06973fb9b847fc88ab30929142d040842a8407e4af1d06f739dea3bbc8bb37a",
    ('FineTune', 0.1): "e06973fb9b847fc88ab30929142d040842a8407e4af1d06f739dea3bbc8bb37a",
    ('Joint', 0.0): "ff813ed74701f07b3226cdffac44f06b4c491b8185400b5443b6fbb8f5a426f1",
    ('Joint', 0.1): "ff813ed74701f07b3226cdffac44f06b4c491b8185400b5443b6fbb8f5a426f1",
}


def _digest(stream, method: str, aux: float) -> str:
    config = TrainerConfig(
        method, 0, arch=ArchConfig([32], 16, [], [16]),
        sgd=SgdConfig(0.2, STEPS, 32), memory_capacity=100,
        hp=HyperParams(lambda_d=0.05, lambda_p=aux, lambda_s=aux))
    try:
        result = run_sequence(stream, config)
    except ConfigError as err:
        return hashlib.sha256(f"ConfigError: {err}".encode()).hexdigest()
    h = hashlib.sha256()
    h.update(dump_json(results_payload("", [result], {})).encode())
    h.update(format_csv(OMEGA_HEADER, omega_rows([result])).encode())
    for p in result.final_state.model.params():
        h.update(p.flat.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def stream():
    return gen_hd_balls(7, 4, 200, 20, 0.5)


@pytest.mark.parametrize("aux", SETTINGS)
@pytest.mark.parametrize("method", METHODS)
def test_outputs_match_pinned_digest(stream, method, aux):
    got = _digest(stream, method, aux)
    assert got == DIGESTS[method, aux], (
        f"{method} at lambda_p = lambda_s = {aux}: outputs differ from the "
        f"pinned digest (pinned with NumPy {PINNED_NUMPY} and single-threaded "
        f"BLAS; this run has NumPy {np.__version__})")


AUDIT_INSTANCES = 200
AUDIT_DIGEST = "ea8b9e82ab7acb3876ad4254ccf8b48b4c75b802e0061ae458f82119390d2716"


def test_audit_reports_match_pinned_digest():
    rng = substream(2024, "byte-identity", "bounds")
    block = []
    for _ in range(AUDIT_INSTANCES):
        inst = random_instance(
            rng, n_domains=int(rng.integers(2, 5)),
            points_per_domain=int(rng.integers(3, 9)),
            class_size=int(rng.choice([16, 64, 256])))
        for r in (check_intra_bound(inst), check_cross_bound(inst),
                  check_unified_bound(inst), tightest_bound_grid(inst),
                  check_erm_bound_shape(inst, 1.0)):
            block.append([r.name, r.n_checks, r.n_violations,
                          repr(r.max_violation), r.details])
    got = hashlib.sha256(json.dumps(block, sort_keys=True).encode()).hexdigest()
    assert got == AUDIT_DIGEST, (
        f"audit reports differ from the pinned digest (pinned with NumPy "
        f"{PINNED_NUMPY}; this run has NumPy {np.__version__})")
