"""The package's public names: every name ``sparqlsim.__all__`` lists is
defined, so a stale export fails here rather than at a user's
``from sparqlsim import *``."""

import sparqlsim


def test_every_exported_name_resolves():
    missing = [name for name in sparqlsim.__all__ if not hasattr(sparqlsim, name)]
    assert missing == []
