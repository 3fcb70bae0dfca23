"""Legacy-path shim: lets `pip install -e . --no-use-pep517` work in
environments without the `wheel` package.  It declares nothing itself:
setuptools reads the `[project]` table in pyproject.toml."""

from setuptools import setup

setup()
