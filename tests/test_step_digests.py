import json

from regenerate_step_digests import DIGESTS_PATH, all_digests


def test_step_digests_match_committed(tmp_path):
    # Every step of 362 completions, through the --trace text, the result
    # and its status, against tests/step_digests.json; regenerate that file
    # with tests/regenerate_step_digests.py --write only for a change meant
    # to alter these outputs.
    committed = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    assert len(committed) == 362
    digests = all_digests(tmp_path)
    changed = [name for name in committed if digests.get(name) != committed[name]]
    assert changed == []
    assert digests.keys() == committed.keys()
