"""Tests for the top-level public API surface.

A downstream user should be able to rely on ``repro``'s documented
entry points without reaching into submodules; these tests pin that
surface (and the package metadata) down.
"""

import importlib

import repro


class TestPublicSurface:
    def test_version_is_exposed(self):
        assert repro.__version__
        assert repro.__version__.count(".") == 2

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ advertises missing name {name!r}"

    def test_documented_subpackages_import(self):
        for module in (
            "repro.config",
            "repro.workloads",
            "repro.caches",
            "repro.cores",
            "repro.simulators",
            "repro.profiling",
            "repro.contention",
            "repro.core",
            "repro.metrics",
            "repro.engine",
            "repro.experiments",
            "repro.cli",
        ):
            assert importlib.import_module(module) is not None

    def test_subpackage_alls_resolve(self):
        for module_name in (
            "repro.config",
            "repro.workloads",
            "repro.caches",
            "repro.cores",
            "repro.simulators",
            "repro.profiling",
            "repro.contention",
            "repro.core",
            "repro.metrics",
            "repro.engine",
        ):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{module_name}.__all__ advertises {name!r}"

    def test_public_callables_have_docstrings(self):
        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) and not (obj.__doc__ or "").strip():
                undocumented.append(name)
        assert not undocumented, f"public API without docstrings: {undocumented}"


class TestSuiteContract:
    def test_suite_names_match_spec_cpu2006(self):
        suite = repro.spec_cpu2006_like_suite()
        assert len(suite) == 29
        # 12 integer + 17 floating-point benchmark names from SPEC CPU2006.
        expected = {
            "perlbench", "bzip2", "gcc", "mcf", "gobmk", "hmmer", "sjeng", "libquantum",
            "h264ref", "omnetpp", "astar", "xalancbmk", "bwaves", "gamess", "milc",
            "zeusmp", "gromacs", "cactusADM", "leslie3d", "namd", "dealII", "soplex",
            "povray", "calculix", "GemsFDTD", "tonto", "lbm", "wrf", "sphinx3",
        }
        assert set(suite.names) == expected

    def test_baseline_machine_and_design_space_are_consistent(self):
        machine = repro.baseline_machine(num_cores=4, llc_config=1)
        design_space = repro.llc_design_space(num_cores=4)
        assert design_space[0].llc == machine.llc
        assert repro.machine_with_llc(6).llc.size_bytes == 2 * 1024 * 1024
        assert repro.scaled(machine, 16).llc.size_bytes == machine.llc.size_bytes // 16


def _public_callables(package_name):
    """Every public function, class and method defined under a package."""
    import inspect
    import pkgutil

    package = importlib.import_module(package_name)
    modules = [package]
    if hasattr(package, "__path__"):
        modules += [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(package.__path__, package_name + ".")
        ]
    found = {}
    for module in modules:
        for name, member in vars(module).items():
            if name.startswith("_") or getattr(member, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(member):
                found[f"{module.__name__}.{name}"] = member
            elif inspect.isclass(member):
                found[f"{module.__name__}.{name}"] = member
                for attr, method in vars(member).items():
                    if isinstance(method, (staticmethod, classmethod)):
                        method = method.__func__
                    if inspect.isfunction(method) and not attr.startswith("_"):
                        found[f"{module.__name__}.{name}.{attr}"] = method
    return found


class TestNoRunTimeKernelChoice:
    """Replay, trace generation and the interleave have one run-time
    path each; their per-access references are reached by name
    (``run_reference``, ``generate_reference``) from tests and guards.
    Only MPPM keeps a solver kernel, chosen when the model is built."""

    PACKAGES = (
        "repro.simulators",
        "repro.workloads.generator",
        "repro.profiling",
        "repro.ingest",
        "repro.predictors",
    )

    def test_no_public_callable_takes_a_kernel(self):
        import inspect

        checked, offenders = 0, []
        for package in self.PACKAGES:
            for name, member in _public_callables(package).items():
                if inspect.isclass(member) and issubclass(member, Exception):
                    continue
                checked += 1
                if "kernel" in inspect.signature(member).parameters:
                    offenders.append(name)
        assert checked > 100
        assert offenders == []

    def test_mppm_predict_methods_take_no_kernel(self):
        import inspect

        from repro.core import MPPM

        methods = [name for name in vars(MPPM) if name.startswith("predict")]
        assert sorted(methods) == ["predict", "predict_batch", "predict_mix"]
        for name in methods:
            assert "kernel" not in inspect.signature(getattr(MPPM, name)).parameters, name

    def test_experiment_config_has_exactly_five_fields(self):
        import dataclasses

        from repro.experiments import ExperimentConfig

        assert [field.name for field in dataclasses.fields(ExperimentConfig)] == [
            "scale",
            "num_instructions",
            "interval_instructions",
            "seed",
            "mppm_kernel",
        ]

    def test_the_references_are_reached_by_name(self):
        from repro.simulators import MultiCoreSimulator, SingleCoreSimulator
        from repro.workloads.generator import TraceGenerator

        assert callable(SingleCoreSimulator.run_reference)
        assert callable(MultiCoreSimulator.run_reference)
        assert callable(TraceGenerator.generate_reference)
        for registry in ("KERNELS", "GENERATOR_KERNELS", "MULTI_CORE_KERNELS"):
            assert not hasattr(repro, registry)
