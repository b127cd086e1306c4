"""The high-scores scenario from §4 of the paper.

"A Player, for instance, can encrypt and store the high scores of a
game in a local storage while keeping the general application markup
unencrypted.  When the game is being executed, the player needs to
decrypt only the scores, which can be done in parallel to the
execution of the markup."

This example shows both halves:

* **partial markup encryption** — the game's score table inside the
  manifest is content-encrypted while the rest of the markup stays
  readable (Fig 8);
* **encrypted local storage** — the running game persists new high
  scores through the engine's ``storage.writeSecure``, and the raw
  storage bytes never contain the score.

Run:  python examples/game_highscores.py
"""

from repro.certs import CertificateAuthority, SigningIdentity, TrustStore
from repro.core import AuthoringPipeline, PlaybackPipeline
from repro.disc import ApplicationManifest
from repro.permissions import PERM_LOCAL_STORAGE, PermissionRequestFile
from repro.player import InteractiveApplicationEngine, LocalStorage
from repro.primitives import DeterministicRandomSource, SymmetricKey
from repro.primitives.rsa import generate_keypair
from repro.xmlcore import parse_element, serialize
from repro.xmlenc import Decryptor, Encryptor

GAME_SCRIPT = """
// Read the previous best (decrypted transparently by the player).
var best = storage.read("best");
if (best == null) best = 0;
player.log("previous best: " + best);

function gameOver(score) {
    if (score > best) {
        best = score;
        storage.writeSecure("best", best);
        player.log("new high score: " + best);
    }
    return best;
}
"""


def main() -> None:
    rng = DeterministicRandomSource(b"high-scores")
    root_ca = CertificateAuthority.create_root("CN=BD Root CA", rng=rng)
    studio = SigningIdentity.create("CN=Pinball Games", root_ca, rng=rng)
    trust = TrustStore(roots=[root_ca.certificate])
    device_key = generate_keypair(1024, rng)

    # --- partial markup encryption (Fig 8) -------------------------------------
    scores_markup = parse_element(
        '<scores xmlns="urn:bda:bdmv:interactive-cluster" Id="score-table">'
        '<entry player="AAA" value="12000"/>'
        '<entry player="BBB" value="9000"/></scores>'
    )
    game = ApplicationManifest("pinball")
    game.add_submarkup("layout", parse_element(
        '<layout xmlns="urn:bda:bdmv:interactive-cluster">'
        '<root-layout width="1920" height="1080"/>'
        '<region regionName="main" width="1920" height="1080"/>'
        "</layout>"
    ))
    game.add_submarkup("scores", scores_markup)
    game.add_script(GAME_SCRIPT)

    manifest_element = game.to_element()
    disc_key = SymmetricKey(rng.read(16))
    table = manifest_element.element_by_id("score-table")
    Encryptor(rng=rng).encrypt_content(table, disc_key,
                                       key_name="disc-key")
    print("== shipped manifest: table element visible, rows hidden ==")
    print(serialize(manifest_element.element_by_id("score-table"),
                    pretty=True)[:320], "...\n")

    Decryptor(keys={"disc-key": disc_key}).decrypt_in_place(
        manifest_element
    )
    rows = manifest_element.element_by_id("score-table") \
        .findall("entry")
    print("decrypted rows:", [(r.get("player"), r.get("value"))
                              for r in rows])

    # --- encrypted local storage at run time --------------------------------------
    prf = PermissionRequestFile("pinball", "org.pinball")
    prf.request(PERM_LOCAL_STORAGE, quota_bytes=4096)
    package = AuthoringPipeline(
        studio, recipient_key=device_key.public_key(), rng=rng,
    ).build_package(game, permission_file=prf)

    storage = LocalStorage()
    storage_key = SymmetricKey(rng.read(16))  # player-internal secret
    engine = InteractiveApplicationEngine(
        PlaybackPipeline(trust_store=trust, device_key=device_key),
        storage=storage, storage_key=storage_key,
    )
    application = engine.load_package(package.data)
    session = engine.execute(application)
    print("\nfirst run:", session.console)
    print("gameOver(4200) ->", session.dispatch("gameOver", 4200.0))
    print("gameOver(1000) ->", session.dispatch("gameOver", 1000.0))

    # The raw storage slot is ciphertext — the score never hits disk
    # in the clear.
    raw = storage.read("pinball", "best")
    print(f"\nraw storage bytes ({len(raw)}B):", raw[:24].hex(), "...")
    print("contains '4200'?", b"4200" in raw)

    # Second execution resumes from the protected slot.
    session2 = engine.execute(engine.load_package(package.data))
    print("second run:", session2.console)


if __name__ == "__main__":
    main()
