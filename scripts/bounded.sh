# Sourced by the gate scripts. bounded SECONDS BINARY [ARGS...] runs
# BINARY under coreutils `timeout`, so a hang fails the gate (exit 124,
# or 137 if it ignores SIGTERM) instead of wedging it.
bounded() {
    local limit="$1"
    shift
    local status=0
    timeout --kill-after=10 "$limit" "$@" || status=$?
    if [[ "$status" -eq 124 || "$status" -eq 137 ]]; then
        echo "FAIL: $(basename "$1") ran past its ${limit} s bound (hung?)" >&2
    fi
    return "$status"
}
