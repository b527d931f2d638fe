"""Bundled reprolint rules; importing this package registers them all."""

from repro.lint.rules import (det001, det002, det003, meta,  # noqa: F401
                              sec001, sec003, sec004)
