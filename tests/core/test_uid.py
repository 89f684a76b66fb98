"""UID issue, uniqueness, verification and forgery rejection."""

import pytest

from repro.core.eject import Eject
from repro.core.errors import ForgeryError
from repro.core.kernel import Kernel
from repro.core.uid import NONCE_BITS, UID, UIDFactory


class TestIssue:
    def test_serials_increase(self):
        factory = UIDFactory()
        uids = [factory.issue() for _ in range(10)]
        assert [u.serial for u in uids] == list(range(10))

    def test_all_unique(self):
        factory = UIDFactory()
        uids = [factory.issue() for _ in range(200)]
        assert len(set(uids)) == 200

    def test_issue_many(self):
        factory = UIDFactory()
        uids = list(factory.issue_many(5))
        assert len(uids) == 5
        assert factory.issued_count == 5

    def test_space_stamped(self):
        factory = UIDFactory(space=7)
        assert factory.issue().space == 7
        assert factory.space == 7

    def test_str_and_brief(self):
        factory = UIDFactory(space=1)
        uid = factory.issue()
        assert str(uid) == "uid:1.0"
        assert uid.brief() == "1.0"


class TestDeterminism:
    def test_same_seed_same_nonces(self):
        a = [UIDFactory(seed=42).issue() for _ in range(1)][0]
        b = [UIDFactory(seed=42).issue() for _ in range(1)][0]
        assert a == b

    def test_different_seed_different_nonces(self):
        a = UIDFactory(seed=1).issue()
        b = UIDFactory(seed=2).issue()
        assert a != b


class TestVerification:
    def test_genuine_accepted(self):
        factory = UIDFactory()
        uid = factory.issue()
        assert factory.is_genuine(uid)
        assert factory.verify(uid) is uid

    def test_forged_nonce_rejected(self):
        factory = UIDFactory()
        genuine = factory.issue()
        forged = UID(space=genuine.space, serial=genuine.serial,
                     nonce=(genuine.nonce + 1) % (1 << NONCE_BITS))
        assert not factory.is_genuine(forged)
        with pytest.raises(ForgeryError):
            factory.verify(forged)

    def test_unissued_serial_rejected(self):
        factory = UIDFactory()
        factory.issue()
        forged = UID(space=0, serial=99, nonce=0)
        assert not factory.is_genuine(forged)

    def test_wrong_space_rejected(self):
        factory = UIDFactory(space=0)
        other = UIDFactory(space=1)
        assert not factory.is_genuine(other.issue())

    def test_non_uid_rejected(self):
        factory = UIDFactory()
        assert not factory.is_genuine("uid:0.0")  # type: ignore[arg-type]


class TestValueSemantics:
    def test_equality_includes_nonce(self):
        factory = UIDFactory()
        uid = factory.issue()
        same = UID(space=uid.space, serial=uid.serial, nonce=uid.nonce)
        assert uid == same
        assert hash(uid) == hash(same)

    def test_a_bare_tuple_is_not_a_uid(self):
        kernel = Kernel()
        eject = kernel.create(Eject, name="e")
        uid = eject.uid
        bare = (uid.space, uid.serial, uid.nonce)
        assert uid != bare and bare != uid
        assert not uid == bare and not bare == uid
        assert hash(uid) == hash(bare)  # alike, yet never the same key
        assert kernel.find(uid) is eject
        assert kernel.find(bare) is None  # type: ignore[arg-type]
        kernel.store.write(uid, "Eject", {}, 0.0)
        assert kernel.store.has(uid)
        assert not kernel.store.has(bare)  # type: ignore[arg-type]
        assert {uid: 1}.get(bare) is None
        assert {bare: 1}.get(uid) is None

    def test_ordering_is_total(self):
        factory = UIDFactory()
        uids = [factory.issue() for _ in range(5)]
        assert sorted(uids) == sorted(uids, key=lambda u: (u.space, u.serial, u.nonce))

    def test_repr_hides_nonce(self):
        uid = UIDFactory().issue()
        assert "nonce" not in repr(uid)
