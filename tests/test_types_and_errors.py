"""Edge-case tests for the shared vocabulary types and the error hierarchy."""

import pytest

from repro import errors
from repro.types import (
    LatencySample,
    Operation,
    Request,
    Response,
    StoreConfig,
)


# --------------------------------------------------------------------- #
# Error hierarchy
# --------------------------------------------------------------------- #

def test_every_library_error_is_an_ortoa_error():
    exception_types = [
        obj
        for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, Exception)
    ]
    assert len(exception_types) >= 10
    for exc_type in exception_types:
        assert issubclass(exc_type, errors.OrtoaError), exc_type


def test_error_specialization_relationships():
    assert issubclass(errors.DecryptionError, errors.CryptoError)
    assert issubclass(errors.NoiseBudgetExhausted, errors.CryptoError)
    assert issubclass(errors.TamperDetectedError, errors.CryptoError)
    assert issubclass(errors.KeyNotFoundError, errors.ProtocolError)
    assert issubclass(errors.AttestationError, errors.EnclaveError)


def test_catching_the_base_class_works():
    with pytest.raises(errors.OrtoaError):
        raise errors.DecryptionError("boom")


# --------------------------------------------------------------------- #
# Request/Response invariants
# --------------------------------------------------------------------- #

def test_read_request_must_not_carry_value():
    with pytest.raises(errors.ConfigurationError):
        Request(Operation.READ, "k", b"value")


def test_write_request_must_carry_value():
    with pytest.raises(errors.ConfigurationError):
        Request(Operation.WRITE, "k", None)


def test_request_constructors():
    read = Request.read("k")
    assert read.op.is_read and not read.op.is_write and read.value is None
    write = Request.write("k", b"v")
    assert write.op.is_write and write.value == b"v"


def test_requests_are_immutable():
    request = Request.read("k")
    with pytest.raises(AttributeError):
        request.key = "other"  # type: ignore[misc]


def test_response_holds_key_and_value():
    response = Response("k", b"v")
    assert (response.key, response.value) == ("k", b"v")


# --------------------------------------------------------------------- #
# StoreConfig semantics
# --------------------------------------------------------------------- #

def test_config_derived_quantities():
    config = StoreConfig(value_len=10, group_bits=2)
    assert config.value_bits == 80
    assert config.num_groups == 40
    config3 = StoreConfig(value_len=10, group_bits=3)
    assert config3.num_groups == 27  # ceil(80 / 3)


def test_config_pad_behaviour():
    config = StoreConfig(value_len=8)
    assert config.pad(b"abc") == b"abc" + bytes(5)
    assert config.pad(b"x" * 8) == b"x" * 8
    with pytest.raises(errors.ConfigurationError):
        config.pad(b"x" * 9)


def test_config_validation():
    with pytest.raises(errors.ConfigurationError):
        StoreConfig(value_len=0)
    with pytest.raises(errors.ConfigurationError):
        StoreConfig(value_len=8, label_bits=12)
    with pytest.raises(errors.ConfigurationError):
        StoreConfig(value_len=8, group_bits=0)


# --------------------------------------------------------------------- #
# Latency samples
# --------------------------------------------------------------------- #

def test_latency_sample_arithmetic():
    sample = LatencySample(Operation.READ, start_ms=10.0, end_ms=35.5)
    assert sample.latency_ms == pytest.approx(25.5)
