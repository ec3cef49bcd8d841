"""The engine factory: every consumer's single entry point.

The CLI, the library builder, and the service coalescer all construct
engines through :func:`repro.engine.make_classifier`; a mis-typed engine
name must fail with a ValueError that names the valid choices — never an
opaque KeyError/AttributeError from deeper in the stack.
"""

import pytest

from repro.core.classifier import FacePointClassifier
from repro.core.msv import DEFAULT_PARTS
from repro.engine import ENGINE_NAMES, BatchedClassifier, make_classifier


class TestMakeClassifier:
    def test_engine_names_cover_all_engines(self):
        assert ENGINE_NAMES == ("perfn", "batched")

    def test_each_name_builds_its_engine(self):
        assert isinstance(make_classifier("perfn"), FacePointClassifier)
        assert isinstance(make_classifier("batched"), BatchedClassifier)
        with pytest.raises(ValueError):
            make_classifier("canonical")

    def test_default_is_batched(self):
        assert isinstance(make_classifier(), BatchedClassifier)

    def test_parts_pass_through(self):
        classifier = make_classifier("batched", parts=("c0", "oiv"))
        assert classifier.parts == ("c0", "oiv")

    def test_unknown_engine_is_a_clear_value_error(self):
        with pytest.raises(ValueError) as excinfo:
            make_classifier("warp-drive")
        message = str(excinfo.value)
        assert "warp-drive" in message
        for name in ENGINE_NAMES:
            assert name in message

    @pytest.mark.parametrize("bad", ["", "BATCHED", "batched ", None, 3])
    def test_near_miss_engine_strings_also_raise(self, bad):
        with pytest.raises(ValueError):
            make_classifier(bad)

    def test_sharded_is_not_an_engine(self):
        with pytest.raises(ValueError):
            make_classifier("sharded")
