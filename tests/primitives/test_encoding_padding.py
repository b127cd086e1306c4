"""Base64/hex/int encodings and the two padding schemes."""

import base64
import functools
import hashlib
import random
import string

import pytest
from hypothesis import given, strategies as st

from repro.errors import CryptoError, PaddingError
from repro.primitives import encoding, padding


@given(st.binary(max_size=512))
def test_b64_roundtrip_and_interop(data):
    encoded = encoding.b64encode(data)
    assert encoded == base64.b64encode(data).decode()
    assert encoding.b64decode(encoded) == data


def test_b64_tolerates_whitespace():
    encoded = encoding.b64encode(b"hello world, disc player")
    broken = "\n  ".join([encoded[:8], encoded[8:16], encoded[16:]])
    assert encoding.b64decode(broken) == b"hello world, disc player"


@pytest.mark.parametrize("bad", [
    "a", "ab!c", "====", "QUJD=A==", "QQ=A",
    # Only XML's four whitespace characters are stripped.
    "QUJD\xa0RA==", "QUJD\u2028RA==", "QUJD\u3000RA==", "QUJD\x0cRA==",
])
def test_b64_rejects_garbage(bad):
    with pytest.raises(CryptoError):
        encoding.b64decode(bad)


# -- pinned transcripts ----------------------------------------------------------------
#
# Each class of inputs below is run through b64encode/b64decode and
# every result is written as one transcript line: the encoding, the
# decoded octets in hex, or the error's type and message.  The SHA-256
# of each class's transcript is pinned.  The pins were recorded from
# the table-driven codec that preceded the binascii one; only the
# "non-xml-whitespace" class differs from it, because that codec also
# stripped every character str.split() treats as whitespace.

B64_ALPHABET = string.ascii_letters + string.digits + "+/"

#: The characters str.split() drops as whitespace beyond XML's
#: #x20 #x9 #xD #xA.
NON_XML_WHITESPACE = "".join(
    ch for ch in map(chr, range(0x3001))
    if ch.isspace() and ch not in " \t\r\n"
)


@functools.cache
def corpus_bytes() -> list[bytes]:
    """Seeded random octets of every length 0-300 and of 1, 3 and 5 kB."""
    rng = random.Random(22)
    return [rng.randbytes(n) for n in [*range(301), 1024, 3072, 5120]]


def rewrap(text: str, width: int, sep: str) -> str:
    return sep.join(text[i:i + width] for i in range(0, len(text), width))


def wrapped_encodings() -> list[str]:
    out = []
    for data in corpus_bytes():
        text = base64.b64encode(data).decode()
        for width in (64, 76):
            out += [rewrap(text, width, "\n"), rewrap(text, width, "\r\n"),
                    rewrap(text, width, "\t"),
                    "  " + rewrap(text, width, "\n ") + " \r\n\t"]
    return out


def around(chars) -> list[str]:
    """Each character in place of one, inside a group and at each end."""
    out = []
    for ch in chars:
        out += ["QU" + ch + "D", "QUJD" + ch + "RA==", "QUJD" + ch + "RB=",
                ch + "QUJD", "QUJD" + ch]
    return out


TRANSCRIPT_CLASSES = {
    "encode": lambda: [encoding.b64encode(d) for d in corpus_bytes()],
    "decode": lambda: [base64.b64encode(d).decode() for d in corpus_bytes()],
    "wrapped": wrapped_encodings,
    "ascii-controls": lambda: around(
        ch for ch in map(chr, range(0x80))
        if not ch.isprintable() and not ch.isspace()
    ),
    "ascii-punctuation": lambda: around(
        ch for ch in string.punctuation if ch not in "+/="
    ) + ["!Q=A", "Q!=A", "Q=!A", "QU!?", "-_-_", "QUJD.QU=", "QUJD QU.="],
    "non-ascii-letters": lambda: around(
        ["\xe9", "\xdf", "\u03a9", "\u044f", "\u4e2d", "\uff21", "\uff5a",
         "\U0001d400", "\ud800"]
    ),
    "pad-in-body": lambda: [
        "QQ=A", "QU=D", "Q=JD", "=QJD", "QUJD=A==", "QUJD=QUJ", "QU=DQUJD",
        "QU=D\n",
    ],
    "excess-pad": lambda: [
        "=", "==", "===", "====", "Q===", "QUJD====", "QUJDQ===", "QQ===",
        "=QUJ", "QUJD=", "QUJD===",
    ],
    "bad-length": lambda: [
        "a", "ab", "abc", "abcde", "QUJDR", "QUJDRA", "QUJDRA=", "Q\nUJDR",
        "QU!", "QU!DA", " Q U J D R ",
    ],
    "non-canonical-tails": lambda: (
        ["Q" + ch + "==" for ch in B64_ALPHABET]
        + ["QU" + ch + "=" for ch in B64_ALPHABET]
        + ["QR==", "QUJ=", "QUJDRB==", "QUJDRUZ="]
    ),
    "empty-and-xml-whitespace": lambda: [
        "", " ", "\n\t\r ", "  QUJD  ", "\r\nQUJD\r\n", "Q\tU\nJ\rD ",
        "QQ\n==", "QQ=\n=",
    ],
    "non-xml-whitespace": lambda: around(NON_XML_WHITESPACE) + [
        "QUJD\xa0", "QUJD\xa0RA==", "QU\u3000JD", "\x0cQUJD",
    ],
}

TRANSCRIPT_PINS = {
    "encode":
        "fb4a0eb7a5c89e05ca81da51c8528afd3a8937bea306d4330ad26ed09c6e32c0",
    "decode":
        "21fc0aa514a7475969f49fc422c616ed575b590f4197b4c0ee59e3a7d8678e33",
    "wrapped":
        "052eb1b7e44350eae158778d6156b45f21f549ad05a7151a17191c47121dd7c1",
    "ascii-controls":
        "e5d1e1906ee6291e9091fca26b614466785d3684a00998ef01e8cff484097e2f",
    "ascii-punctuation":
        "a678df4bb005b64213675395e477f2ddb01f54c317d5b45793720b34fa8f0fb4",
    "non-ascii-letters":
        "acd40cbfb9952b5607d5e7df35af1298bd2bc6113e94f457ed038a7b63d88eb2",
    "pad-in-body":
        "2249e0222988aeb79c836c42a5e693f35dd3ce3b0815e0b3e9db3d516dff515a",
    "excess-pad":
        "ef769620406932bb85c6b169225bead28c74d14752f6493f5f51fb55fdb26e01",
    "bad-length":
        "c68146798591a94dd78c0696a71f8c45ba38251a5e793214cc2f06c9eb793939",
    "non-canonical-tails":
        "573609d71102450b4d44d5863767029d19900b3d7d6cb8cf44a339abd77f60ce",
    "empty-and-xml-whitespace":
        "2903f2901b15a0d341117d7e5de9ba2025f63011f942af53eba70fbb845ffa74",
    # The table-driven codec read 10f7dac35b7183b494b7b87f7a7e28ec
    # 3bd3babfc4db0a023186c819cd419486: it decoded 79 of these 129.
    "non-xml-whitespace":
        "d7fba61fa0df1229c62456087db20ed73a752c8555300ca43b06807d2f065215",
}


def decode_line(text: str) -> str:
    try:
        return encoding.b64decode(text).hex()
    except Exception as exc:  # the transcript records any escape
        return f"{type(exc).__name__}: {exc}"


def transcript(name: str) -> list[str]:
    items = TRANSCRIPT_CLASSES[name]()
    return items if name == "encode" else [decode_line(t) for t in items]


@pytest.mark.parametrize("name", sorted(TRANSCRIPT_CLASSES))
def test_b64_transcript_is_pinned(name):
    lines = transcript(name)
    escaped = {line.split(":")[0] for line in lines if ":" in line}
    assert escaped <= {"CryptoError"}
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == TRANSCRIPT_PINS[name]


@given(st.binary(min_size=1, max_size=64))
def test_hex_roundtrip(data):
    assert encoding.hexdecode(encoding.hexencode(data)) == data


def test_hex_rejects_garbage():
    with pytest.raises(CryptoError):
        encoding.hexdecode("zz")


@given(st.integers(min_value=0, max_value=2 ** 256))
def test_int_bytes_roundtrip(value):
    assert encoding.bytes_to_int(encoding.int_to_bytes(value)) == value


def test_int_to_bytes_fixed_length():
    assert encoding.int_to_bytes(1, 4) == b"\x00\x00\x00\x01"
    assert encoding.int_to_bytes(0) == b"\x00"
    with pytest.raises(CryptoError):
        encoding.int_to_bytes(256, 1)
    with pytest.raises(CryptoError):
        encoding.int_to_bytes(-1)


@given(st.binary(max_size=100))
def test_pkcs7_roundtrip(data):
    padded = padding.pkcs7_pad(data, 16)
    assert len(padded) % 16 == 0
    assert len(padded) > len(data)
    assert padding.pkcs7_unpad(padded, 16) == data


@given(st.binary(max_size=100))
def test_xmlenc_roundtrip(data):
    padded = padding.xmlenc_pad(data, 16)
    assert len(padded) % 16 == 0
    assert padding.xmlenc_unpad(padded, 16) == data


def test_pkcs7_detects_corruption():
    padded = bytearray(padding.pkcs7_pad(b"data", 16))
    padded[-2] ^= 0x01  # flip a pad byte
    with pytest.raises(PaddingError):
        padding.pkcs7_unpad(bytes(padded), 16)


def test_xmlenc_ignores_arbitrary_pad_bytes():
    padded = bytearray(padding.xmlenc_pad(b"data", 16))
    padded[-2] ^= 0xAA  # arbitrary pad octets are not inspected
    assert padding.xmlenc_unpad(bytes(padded), 16) == b"data"


@pytest.mark.parametrize("unpad", [padding.pkcs7_unpad,
                                   padding.xmlenc_unpad])
def test_unpad_rejects_bad_lengths(unpad):
    with pytest.raises(PaddingError):
        unpad(b"", 16)
    with pytest.raises(PaddingError):
        unpad(b"x" * 15, 16)
    with pytest.raises(PaddingError):
        unpad(b"\x00" * 16, 16)   # pad length 0 is invalid
    with pytest.raises(PaddingError):
        unpad(b"\x11" * 16, 16)   # pad length 17 > block size
