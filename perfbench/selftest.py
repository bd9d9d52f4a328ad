"""Self-test of the benchmark's output checks.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload it runs a few bundles as they are (all must pass their
checks), then again with one program output perturbed beyond its tolerance
(every bundle must be counted as failed), and once with a bundle that raises.
``cli_batch`` checks the content of its artifacts once, on the warm-up bundle
that becomes the reference, so its content cases perturb the program before
a fresh workload is set up.  Exits non-zero if any check lets a perturbed
bundle through.
"""

import argparse
import dataclasses
import shutil
import sys

import run

BUNDLES = 3


def _perturb_report(module):
    original = module.duality_report

    def perturbed(state):
        report = original(state)
        return dataclasses.replace(report, coherence=report.coherence + 1e-6)
    return "duality_report", original, perturbed


def _perturb_two_slit(module):
    original = module.two_slit_pattern

    def perturbed(*args, **kwargs):
        profile = original(*args, **kwargs)
        return dataclasses.replace(profile, visibility=profile.visibility + 1e-5)
    return "two_slit_pattern", original, perturbed


def _perturb_scan(module):
    original = module.mei_weitz_scan

    def perturbed(*args, **kwargs):
        scan = original(*args, **kwargs)
        return dataclasses.replace(scan, visibilities=scan.visibilities + 1e-5)
    return "mei_weitz_scan", original, perturbed


def _perturb_profile(module):
    original = module.intensity_profile

    def perturbed(*args, **kwargs):
        profile = original(*args, **kwargs)
        return dataclasses.replace(profile, intensity=profile.intensity * (1.0 + 1e-6))
    return "intensity_profile", original, perturbed


def _perturb_artifact(module):
    original = module.main

    def perturbed(argv):
        code = original(argv)
        if "--output" in argv:
            with open(argv[argv.index("--output") + 1], "a", encoding="utf-8") as out:
                out.write(" ")
        return code
    return "main", original, perturbed


def _raise(module):
    original = module.duality_report

    def raising(state):
        raise RuntimeError("injected failure")
    return "duality_report", original, raising


# (workload, module patched, perturbation, perturb before set-up)
CASES = (("report_ensemble", "dualitylab", _perturb_report, False),
         ("report_ensemble", "dualitylab", _raise, False),
         ("fringe_scan", "dualitylab", _perturb_two_slit, False),
         ("fringe_scan", "dualitylab", _perturb_scan, False),
         ("fringe_scan", "dualitylab", _perturb_profile, False),
         ("cli_batch", "dualitylab.cli", _perturb_artifact, False),
         ("cli_batch", "dualitylab.cli", _perturb_report, True),
         ("cli_batch", "dualitylab.cli", _perturb_scan, True))


def _failures(workload, first_index: int) -> int:
    failed = 0
    for index in range(first_index, first_index + BUNDLES * workload.cycle):
        _, ok, _ = run._run_bundle(workload, index)
        failed += not ok
    return failed


def main() -> int:
    problems = []
    for name, module_name, perturb, before_setup in CASES:
        args = argparse.Namespace(workload=name, seed=7)
        workdirs = [run.make_workdir(f"selftest-{name}-")]
        try:
            workload = run._set_up(args, workdirs[0])
            module = sys.modules[module_name]
            clean = _failures(workload, workload.warmup)
            attr, original, replacement = perturb(module)
            setattr(module, attr, replacement)
            try:
                if before_setup:
                    workdirs.append(run.make_workdir(f"selftest-{name}-"))
                    workload = run._set_up(args, workdirs[1])
                dirty = _failures(workload, 1000)
            finally:
                setattr(module, attr, original)
        finally:
            for workdir in workdirs:
                shutil.rmtree(workdir, ignore_errors=True)
        expected = BUNDLES * workload.cycle
        status = "ok" if clean == 0 and dirty == expected else "FAIL"
        when = "before set-up" if before_setup else "after set-up"
        print(f"{name} / {perturb.__name__} {when}: clean failures {clean}, "
              f"perturbed failures {dirty} of {expected}: {status}")
        if status != "ok":
            problems.append(name)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
