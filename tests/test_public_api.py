"""The package's public API surface: imports, exports, error hierarchy."""

import os
import re
import subprocess
import sys

import pytest

import repro
from repro import errors

PYPROJECT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pyproject.toml"
)


class TestExports:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_version(self):
        assert repro.__version__.count(".") == 2
        # The one declared packaging version (pyproject.toml) is the same.
        with open(PYPROJECT, encoding="utf-8") as handle:
            text = handle.read()
        try:
            import tomllib
        except ImportError:  # Python 3.10
            declared = re.search(
                r'^\[project\]$.*?^version = "([^"]+)"$', text, re.M | re.S
            ).group(1)
        else:
            declared = tomllib.loads(text)["project"]["version"]
        assert declared == repro.__version__

    def test_gkm_exports_are_pinned(self):
        """One ACV-BGKM build path: the scheme, its bucketed header, and
        the publish-path strategies over the build cache -- nothing else."""
        import repro.gkm

        assert sorted(repro.gkm.__all__) == [
            "AcvBgkm",
            "AcvBuildCache",
            "AcvHeader",
            "BucketedGkmStrategy",
            "BucketedHeader",
            "DenseGkmStrategy",
            "FAST_FIELD",
            "GKM_STRATEGIES",
            "PAPER_FIELD",
            "build_strategy",
            "decode_keying_header",
        ]

    def test_import_boundary(self):
        """``import repro.gkm`` loads only the scheme, the bucketed header
        and the strategies; and no module of the package imports the test
        tree (the GKM baselines live there, beside their only users)."""
        probe = (
            "import importlib, pkgutil, sys; import repro.gkm; "
            "gkm = sorted(m for m in sys.modules if m.startswith('repro.gkm.')); "
            "assert gkm == ['repro.gkm.acv', 'repro.gkm.buckets', "
            "'repro.gkm.strategy'], gkm; "
            "import repro; "
            "[importlib.import_module(i.name) for i in "
            "pkgutil.walk_packages(repro.__path__, prefix='repro.')]; "
            "bad = [m for m in sys.modules if m == 'tests' "
            "or m.startswith('tests.')]; "
            "sys.exit('imports the test tree: %s' % bad if bad else 0)"
        )
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            cwd=root, env=env,
        )
        assert result.returncode == 0, result.stderr

    def test_docstring_quickstart_works(self):
        from repro.workloads import build_hospital

        hospital = build_hospital()
        package = hospital.publisher.publish(hospital.document)
        plaintexts = hospital.subscribers["carol"].receive(package)
        assert "Medication" in plaintexts


class TestErrorHierarchy:
    def test_all_errors_derive_from_base(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is not errors.ReproError:
                    assert issubclass(obj, errors.ReproError), name

    @pytest.mark.parametrize(
        "child,parent",
        [
            (errors.NotInvertibleError, errors.MathError),
            (errors.NoSquareRootError, errors.MathError),
            (errors.FieldMismatchError, errors.MathError),
            (errors.NotOnCurveError, errors.GroupError),
            (errors.CommitmentError, errors.CryptoError),
            (errors.DecryptionError, errors.CryptoError),
            (errors.ProtocolStateError, errors.OCBEError),
            (errors.PolicyParseError, errors.PolicyError),
            (errors.KeyDerivationError, errors.GKMError),
            (errors.CapacityError, errors.GKMError),
            (errors.RegistrationError, errors.SystemError_),
            (errors.NetworkError, errors.SystemError_),
        ],
    )
    def test_specific_parentage(self, child, parent):
        assert issubclass(child, parent)

    def test_catching_base_class_works(self):
        from repro.mathx.modular import modinv

        with pytest.raises(errors.ReproError):
            modinv(0, 7)


class TestSubpackageDocs:
    def test_every_public_module_has_docstring(self):
        import importlib
        import pkgutil

        package = importlib.import_module("repro")
        for info in pkgutil.walk_packages(package.__path__, prefix="repro."):
            module = importlib.import_module(info.name)
            assert module.__doc__, "missing docstring: %s" % info.name
