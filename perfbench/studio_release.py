"""studio-release: the write side of the same XML security layers.

Closed loop, one worker.  Each release masters a never-seen disc with
``DiscAuthor`` (the clip bytes are generated once at set-up), signs it
at TRACK level with ``sign_disc_image``, seals a bonus package with
``AuthoringPipeline.build_package`` (code encrypted to the device key)
and audits the signed disc with ``ArtifactAuditor.audit_disc_image``.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from contextlib import nullcontext
from itertools import count

from perfbench import inputs
from perfbench.common import (
    Outcome, registry_layers, timed_setup,
)
from repro.analysis.artifact import ArtifactAuditor
from repro.core.granularity import verify_signatures
from repro.dsig import Verifier
from repro.perf import metrics
from repro.perf.cache import NullCache

#: What ``op``, ``op2`` and ``rate`` of this workload measure.
LABELS = ("release", "disc_release", "release_rate")
WARMUP_RELEASES = 3
#: Traced runs alternate blocks of this many traced and untraced
#: releases (one block holds every application count once).
TRACE_BLOCK = 7
#: Largest share of traced time that no layer span may cover.
UNATTRIBUTED_LIMIT = 0.1


def pinned_census(apps: int) -> Counter:
    """The audit findings of a clean release with *apps* applications.

    The disc carries one signature per application track, one for the
    A/V track and one over the stream.  Each uses RSA-SHA1 (SEC010,
    SEC011) with a 1024-bit key (SEC012); every one but the stream
    signature is a same-document ``#id`` reference (SEC002).
    """
    signatures = apps + 2
    return Counter({"SEC002": signatures - 1, "SEC010": signatures,
                    "SEC011": signatures, "SEC012": signatures})


class Studio:
    def __init__(self, seed: int):
        self.seed = seed
        self.world = inputs.build_world()
        self.clip = inputs.base_clip(seed)
        self.shapes = inputs.Shapes(seed)
        self.index = count()

    def next_inputs(self):
        """Content for the next release: the disc's applications and
        the bonus application (authoring inputs, not timed)."""
        index = next(self.index)
        rng = random.Random(f"{self.seed}:release:{index}")
        manifests, _ = inputs.applications(
            rng, next(self.shapes.apps), next(self.shapes.menu_lines))
        bonus, _ = inputs.bonus_manifest(rng,
                                         next(self.shapes.bonus_lines))
        return index, manifests, bonus

    def release(self, index, manifests, bonus):
        """Master, sign, seal and audit; returns what the oracle needs
        and the seconds spent on the disc half (master and sign)."""
        started = time.perf_counter()
        image = inputs.author(index, self.clip, manifests).master()
        inputs.sign(image, self.world.studio)
        disc_s = time.perf_counter() - started
        package = inputs.seal(self.world, bonus, index)
        auditor = ArtifactAuditor()
        auditor.audit_disc_image(image, f"release-{index}")
        return image, package, auditor.finish(), disc_s

    def check(self, apps: int, image, package: bytes, audit,
              outcome: Outcome) -> bool:
        census = Counter(f.rule_id for f in audit.findings)
        if census != pinned_census(apps):
            outcome.mismatch(f"audit census {dict(census)} is not "
                             f"{dict(pinned_census(apps))}")
            return False
        verifier = Verifier(trust_store=self.world.trust_store,
                            require_trusted_key=True,
                            resolver=image.resolver, cache=NullCache())
        reports = verify_signatures(image.cluster_element(), verifier)
        if len(reports) != apps + 2 or \
                not all(r.valid for r in reports.values()):
            outcome.mismatch("a signed disc does not verify under an "
                             "independent verifier")
            return False
        if b"EncryptedData" not in package or b"<script" in package:
            outcome.mismatch("the sealed package's code is not encrypted")
            return False
        return True


def run(seed: int, seconds: float, tracer=None) -> Outcome:
    outcome = Outcome("studio-release")
    calibration = outcome.calibration

    def build():
        studio = Studio(seed)
        for _ in range(WARMUP_RELEASES):
            index, manifests, bonus = studio.next_inputs()
            studio.check(len(manifests),
                         *studio.release(index, manifests, bonus)[:3],
                         outcome)
        return studio

    studio = timed_setup(outcome, calibration, build)
    registry = metrics.push_registry()
    releases = findings = 0
    end = time.perf_counter() + seconds
    try:
        while time.perf_counter() < end:
            traced = tracer is not None and \
                tracer.alternate(releases, TRACE_BLOCK)
            index, manifests, bonus = studio.next_inputs()
            calibration.sample()
            with tracer.request(index) if traced else nullcontext():
                started = time.perf_counter()
                image, package, audit, disc_s = studio.release(
                    index, manifests, bonus)
                release_s = time.perf_counter() - started
            calibration.mark()
            releases += 1
            findings += len(audit.findings)
            outcome.attempted += 1
            if not studio.check(len(manifests), image, package, audit,
                                outcome):
                outcome.failed += 1
                continue
            if traced:
                outcome.traced.add(index)
                outcome.traced_op.add(release_s, started)
            else:
                outcome.op.add(release_s, started)
                outcome.op2.add(disc_s, started)
    finally:
        if tracer is not None:
            tracer.uninstall()
        metrics.pop_registry()
    releases_cal = outcome.op.undisturbed(calibration).cal(calibration)
    outcome.rate = 1000.0 * len(releases_cal) / sum(releases_cal) \
        if releases_cal else 0.0
    outcome.layers.update(registry_layers(registry, releases))
    outcome.layers["analysis.audit.findings"] = findings / releases
    outcome.notes.update(releases=releases,
                         calibration_ms=calibration.median() * 1e3)
    return outcome

