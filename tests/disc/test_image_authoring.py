"""Disc image, TS generation and authoring."""

import pytest

from repro.disc import (
    ApplicationManifest, CLUSTER_PATH, DiscAuthor, DiscImage,
    TS_PACKET_SIZE, clipinfo_path, generate_transport_stream,
    inspect_transport_stream, path_to_uri, stream_path, uri_to_path,
)
from repro.errors import AuthoringError, DiscError, DiscFormatError
from repro.xmlcore import parse_element


def test_ts_generation_framing(rng):
    stream = generate_transport_stream(10, pid=0x42, rng=rng)
    assert len(stream) == 10 * TS_PACKET_SIZE
    info = inspect_transport_stream(stream)
    assert info.packets == 10
    assert info.pids == (0x42,)
    assert info.ok


def test_ts_continuity_error_detection(rng):
    stream = bytearray(generate_transport_stream(5, rng=rng))
    # Corrupt the continuity counter of packet 3.
    stream[3 * TS_PACKET_SIZE + 3] ^= 0x0F
    info = inspect_transport_stream(bytes(stream))
    assert info.continuity_errors > 0


def test_ts_sync_byte_required(rng):
    stream = bytearray(generate_transport_stream(2, rng=rng))
    stream[TS_PACKET_SIZE] = 0x00
    with pytest.raises(DiscError, match="sync byte"):
        inspect_transport_stream(bytes(stream))


def test_ts_validation_rejects_ragged():
    with pytest.raises(DiscError):
        inspect_transport_stream(b"\x47" * 100)
    with pytest.raises(DiscError):
        inspect_transport_stream(b"")


def test_ts_generation_rejects_bad_args(rng):
    with pytest.raises(DiscError):
        generate_transport_stream(0, rng=rng)
    with pytest.raises(DiscError):
        generate_transport_stream(1, pid=0x2000, rng=rng)


def test_uri_mapping():
    assert path_to_uri("BDMV/STREAM/00001.m2ts") == \
        "bd://BDMV/STREAM/00001.m2ts"
    assert uri_to_path("bd://x/y") == "x/y"
    with pytest.raises(DiscFormatError):
        uri_to_path("http://elsewhere/")


def test_image_file_operations():
    image = DiscImage()
    image.write("BDMV/AUXDATA/a.bin", b"data")
    assert image.exists("BDMV/AUXDATA/a.bin")
    assert image.read("BDMV/AUXDATA/a.bin") == b"data"
    assert image.total_bytes() == 4
    with pytest.raises(DiscFormatError):
        image.read("missing")
    with pytest.raises(DiscFormatError):
        image.write("../escape", b"x")
    with pytest.raises(DiscFormatError):
        image.write("/absolute", b"x")


def _author(rng, clips=1):
    author = DiscAuthor("Test Disc", rng=rng)
    infos = [author.add_clip(4.0, packets_per_second=25)
             for _ in range(clips)]
    author.add_feature("main", infos)
    manifest = ApplicationManifest("app")
    manifest.add_submarkup("layout", parse_element(
        '<layout xmlns="urn:bda:bdmv:interactive-cluster">'
        '<region regionName="main" width="1" height="1"/></layout>'
    ))
    manifest.add_script("var x = 0;")
    author.add_application(manifest)
    return author


def test_authoring_end_to_end(rng):
    image = _author(rng, clips=2).master()
    assert image.validate_structure() == []
    cluster = image.cluster()
    assert cluster.title == "Test Disc"
    assert len(cluster.av_tracks()) == 1
    assert image.clip_info("00001").duration_s == 4.0
    assert inspect_transport_stream(image.stream("00002")).ok
    assert image.resolver(path_to_uri(stream_path("00001"))) == \
        image.stream("00001")


def test_authoring_rejects_bad_clip(rng):
    author = DiscAuthor("X", rng=rng)
    with pytest.raises(AuthoringError):
        author.add_clip(0.0)


@pytest.mark.parametrize("target", ["cluster", "stream", "clip info"])
def test_aux_file_may_not_overwrite_authored_content(rng, target):
    path = {"cluster": CLUSTER_PATH,
            "stream": stream_path("00001"),
            "clip info": clipinfo_path("00001")}[target]
    author = _author(rng)
    author.add_aux_file(path, b"<not-a-cluster/>")
    with pytest.raises(AuthoringError,
                       match=f"aux file {path} would overwrite"):
        author.master()


def test_master_names_clips_without_stream_or_clip_info(rng):
    # A playlist naming a clip this author never added.
    other = DiscAuthor("Other", rng=rng)
    other.add_clip(1.0)
    stranger = other.add_clip(1.0)
    author = _author(rng)
    author.add_feature("bonus", [stranger])
    with pytest.raises(AuthoringError) as caught:
        author.master()
    assert str(caught.value) == (
        "mastered image is inconsistent: "
        "clip 00002: missing stream file; clip 00002: missing clip info"
    )


def test_structure_validation_finds_missing_stream(rng):
    image = _author(rng).master()
    # Build a broken copy without the stream file.
    broken = DiscImage({
        p: image.read(p) for p in image.paths()
        if not p.endswith(".m2ts")
    })
    problems = broken.validate_structure()
    assert any("missing stream" in p for p in problems)


def test_fs_roundtrip(tmp_path, rng):
    image = _author(rng).master()
    image.save_to_directory(str(tmp_path))
    again = DiscImage.load_from_directory(str(tmp_path))
    assert again.paths() == image.paths()
    assert again.read(CLUSTER_PATH) == image.read(CLUSTER_PATH)
    assert again.total_bytes() == image.total_bytes()


def test_custom_stream_supplied(rng):
    author = DiscAuthor("X", rng=rng)
    custom = generate_transport_stream(7, rng=rng)
    info = author.add_clip(1.0, stream=custom)
    assert info.packets == 7
    author.add_feature("main", [info])
    image = author.master()
    assert image.stream("00001") == custom


def test_single_file_image_roundtrip(tmp_path, rng, pki):
    """A signed disc survives the .iso-style archive byte-for-byte."""
    from repro.core import sign_disc_image
    from repro.dsig import Signer
    from repro.player import DiscPlayer
    from repro.certs import TrustStore

    image = _author(rng).master()
    sign_disc_image(image, Signer(pki.studio.key, identity=pki.studio))
    path = str(tmp_path / "movie.iso")
    image.save_to_file(path)

    again = DiscImage.load_from_file(path)
    assert again.paths() == image.paths()
    for member in image.paths():
        assert again.read(member) == image.read(member)
    store = TrustStore(roots=[pki.root.certificate])
    assert DiscPlayer(store).insert_disc(again).authenticated


def test_load_from_file_rejects_garbage(tmp_path):
    path = tmp_path / "junk.iso"
    path.write_bytes(b"this is not an archive")
    with pytest.raises(DiscFormatError, match="not a disc image"):
        DiscImage.load_from_file(str(path))
