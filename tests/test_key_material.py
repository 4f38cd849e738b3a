"""Pin every phase artifact's cache-key material across the full matrix.

A cache key is ``H(salt | material)``, and each material embeds the
keys of the task's dependencies.  This test rebuilds every job's task
plan, derives each task's material under a fixed salt, and compares a
digest of all of them with the digest pinned below.  A change to the
executor, the plan builder or the key chaining that moves any
artifact's address — including the discover-then-annotate chain,
whose annotated ``loopbounds`` material embeds the ``annotate``
mapping — fails it.

Regenerate only for a deliberate key change::

    PYTHONPATH=src python tests/test_key_material.py

prints the line count and digest to pin.
"""

import hashlib

from repro.batch import ArtifactCache, Resolver, expand_matrix, job_tasks
from repro.workloads.suite import get_workload

#: Stands in for the code-version salt, which changes with every edit.
PIN_SALT = "key-material-pin"
PINNED_LINES = 846
PINNED_DIGEST = \
    "e9ae110407f21529d079851da52d679f6d5b9b73f319965f8f84486a1c58f094"


def material_lines():
    """Sorted ``job<TAB>template<TAB>material`` lines of all jobs."""
    cache = ArtifactCache(None, salt=PIN_SALT)
    programs = {}
    lines = []
    for spec in expand_matrix("all:all:all"):
        workload = get_workload(spec.workload)
        if spec.workload not in programs:
            programs[spec.workload] = workload.compile()
        resolver = Resolver(job_tasks(
            programs[spec.workload], workload,
            context_policy=spec.policy_object(),
            pipeline_model=spec.model), cache)
        lines += [f"{spec.job_id}\t{name}\t{resolver.material(name)}"
                  for name in resolver.tasks]
    return sorted(lines)


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_key_material_is_pinned_across_the_full_matrix():
    lines = material_lines()
    assert (len(lines), digest(lines)) == (PINNED_LINES, PINNED_DIGEST), (
        "phase key material moved: artifacts cached by earlier versions "
        "would no longer be addressed.  If the change is deliberate, "
        "regenerate with `PYTHONPATH=src python tests/test_key_material.py`"
        " and update PINNED_LINES / PINNED_DIGEST.")


if __name__ == "__main__":
    pinned = material_lines()
    print(len(pinned), digest(pinned))
