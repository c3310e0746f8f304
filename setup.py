"""Setup shim: enables legacy editable installs where the ``wheel`` package
is unavailable (``pip install -e .`` needs bdist_wheel on old setuptools).

The package is pure-stdlib.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.9",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.8",
)
