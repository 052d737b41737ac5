# Tier-1 verification lives in verify.sh; `make verify` is the one command
# to run before committing.
.PHONY: verify build test race vet chaos

verify:
	./verify.sh

# Seeded fault-injection campaign: 50 distinct disk-fault/crash schedules
# against the store, race, checkpoint and serve workloads, invariants
# checked after each. Failures print a deterministic replay command.
chaos:
	go run -race ./cmd/localitylab chaos run -seed 1 -n 50 -out /tmp/chaos-manifest.json

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

vet:
	go vet ./...
