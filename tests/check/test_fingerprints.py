"""Pinned digests of the durable-image fingerprints.

Pruning soundness, the optimizer's final-image oracle and recorded
benchmark outputs all compare these digests across revisions, so the
hashed byte stream must never change by accident: each block hashes its
written ``(offset, byte)`` pairs by ascending offset, whatever order the
bytes were written in."""

from repro.check.checker import durable_fingerprint
from repro.mem.block import BlockData
from repro.mem.nvmm import NVMMedia
from repro.opt.verify import final_image_fingerprint
from repro.sim.engine import PersistRecord

BASE = 1 << 30


def _image() -> NVMMedia:
    media = NVMMedia(BASE, 1 << 20)
    media.write_block(BASE + 0x80, BlockData({0: 0x11, 7: 0xFF, 63: 0x01}))
    media.write_block(BASE, BlockData({3: 0xAB, 4: 0x00}))
    media.write_block(BASE + 0x40000, BlockData({16: 0x5A, 17: 0xA5}))
    media.write_block(BASE + 0x80, BlockData({8: 0x99, 7: 0x42}))
    return media


COMMITTED = [PersistRecord(0, BASE + 3, 2, 0x00AB, 1),
             PersistRecord(1, BASE + 0x87, 2, 0x9942, 2)]
PERFORMED = [PersistRecord(1, BASE + 0x87, 2, 0x9942, 3)]


def test_durable_fingerprint_digest_is_pinned():
    assert durable_fingerprint("bbb", _image(), COMMITTED, PERFORMED) == (
        "9ef6660b083ebd366ae92c92d390708df599d86b157d4587329e84250df07386"
    )


def test_final_image_fingerprint_digest_is_pinned():
    persistent = final_image_fingerprint(
        _image(), lambda baddr: baddr < BASE + 0x40000
    )
    assert persistent == (
        "d61d306dd852663eec4c4a5705bee0fa03f03b449d17ced740e7733fb19f8c87"
    )
    assert final_image_fingerprint(_image(), lambda baddr: True) == (
        "b8c8fd6285e2d0607594e25d84c59f64f50c9f2fd68c2d2aca68065d62ef9f67"
    )
