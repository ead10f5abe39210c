"""Every library error survives a pickle round trip and ``copy.copy`` unchanged."""

import copy
import inspect
import pickle

import pytest

from funcroc import errors

ERROR_CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                 if issubclass(cls, errors.FuncrocError)]

# the classes whose __init__ formats the message from other arguments
EXAMPLES = {
    errors.CurveParseError: lambda: errors.CurveParseError("not a number: 'x'", line=7),
    errors.SingularCovarianceError: lambda: errors.SingularCovarianceError("healthy"),
}


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("round_trip", [
    lambda error: pickle.loads(pickle.dumps(error)),
    copy.copy,
], ids=["pickle", "copy"])
def test_an_error_round_trips_with_its_type_message_and_attributes(cls, round_trip):
    error = EXAMPLES.get(cls, lambda: cls("the operands disagree"))()
    again = round_trip(error)
    assert type(again) is cls
    assert str(again) == str(error)
    for attribute in ("group", "line"):
        assert getattr(again, attribute, None) == getattr(error, attribute, None)

